// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     --data <perfbench/data>
//   perfbench_harness --record-expected <perfbench/data>
//
// Workloads: table2-replay, table2-slrg (batch.cpp), service-mixed
// (service.cpp).  Human-readable lines come first; the last line of stdout
// is one JSON object {"correct","attempted","failed","metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exit code 0 when every answer was right, 1 on any mismatch, 2 on a usage
// or set-up error (no JSON line then).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "inputs.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

struct Spec {
  const char* name;
  const char* unit;
};

// Every run reports every name of its table, in this order (BENCHMARK.json
// lists the same names).  A per-layer metric whose layer is not on the
// workload's path reads 0.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_ms_geomean", "ms"}, {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"}, {"capacity_rps", "1/s"},    {"verdict_ok_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr Spec kPerLayer[] = {
    {"model.compile_ms", "ms"},
    {"model.actions", "count"},
    {"core.plrg_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"core.search_self_ms", "ms"},
    {"core.replay_calls", "count"},
    {"core.replay_prune_ratio", "ratio"},
    {"core.rg_expansions", "count"},
    {"core.rg_peak_open", "count"},
    {"core.slrg_sets", "count"},
    {"core.slrg_memo_hit_rate", "ratio"},
    {"core.limit_hits", "count"},
    {"sim.validate_calls", "count"},
    {"sim.validate_ms", "ms"},
    {"sim.accept_ratio", "ratio"},
    {"service.wait_ms_p50", "ms"},
    {"service.wait_ms_tail", "ms"},
    {"service.cache_hit_rate", "ratio"},
    {"service.compile_ms.hit", "ms"},
    {"service.solve_ms.hit", "ms"},
    {"service.compile_ms.miss", "ms"},
    {"service.solve_ms.miss", "ms"},
    {"service.compile_ms.repair", "ms"},
    {"service.solve_ms.repair", "ms"},
    {"service.compile_ms.cp", "ms"},
    {"service.solve_ms.cp", "ms"},
    {"service.ladder.primary", "count"},
    {"service.ladder.anytime_incumbent", "count"},
    {"service.ladder.greedy_fallback", "count"},
    {"service.ladder.full_replan", "count"},
    {"repair.repaired_share", "ratio"},
    {"repair.solve_ms", "ms"},
    {"cp.solve_ms", "ms"},
    {"cp.branches", "count"},
    {"wire.parse_us", "us"},
    {"wire.render_us", "us"},
    {"server.overhead_ms", "ms"},
    {"loadgen.lag_ms", "ms"},
    {"host.ref_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

const Metric* find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_metric(const Metric& m) {
  std::printf("metric %-34s %14.4f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload <table2-replay|table2-slrg|service-mixed>"
               " --seed <n> --seconds <s> --trace <0|1> --data <dir>\n"
               "       perfbench_harness --record-expected <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--record-expected") return perfbench::record_expected(v);
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--data") {
        opt.data_dir = v;
      } else {
        return usage();
      }
    }
    if (opt.data_dir.empty() || opt.seconds <= 0.0) return usage();

    Report report;
    if (opt.workload == "table2-replay" || opt.workload == "table2-slrg") {
      perfbench::run_batch(opt, report);
    } else if (opt.workload == "service-mixed") {
      perfbench::run_service(opt, report);
    } else {
      return usage();
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n", opt.workload.c_str(),
                (unsigned long long)opt.seed, opt.seconds, opt.trace ? 1 : 0);
    for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());

    for (const Metric& m : report.e2e) print_metric(m);
    for (const Metric& m : report.layer) print_metric(m);

    std::string metrics;
    auto emit = [&metrics](const char* name, double value, const char* unit) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    metrics.empty() ? "" : ", ", name, value, unit);
      metrics += buf;
    };
    if (opt.trace) {
      for (const Spec& s : kPerLayer) {
        const Metric* m = find(report.layer, s.name);
        emit(s.name, m ? m->value : 0.0, s.unit);
      }
    } else {
      for (const Spec& s : kEndToEnd) {
        const Metric* m = find(report.e2e, s.name);
        if (m == nullptr) {
          std::fprintf(stderr, "internal error: end-to-end metric %s not measured\n", s.name);
          return 2;
        }
        emit(s.name, m->value, s.unit);
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                report.correct ? "true" : "false", (unsigned long long)report.attempted,
                (unsigned long long)report.failed, metrics.c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
