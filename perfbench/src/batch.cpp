// The batch workloads: Table 2 rows solved back to back on one thread, the
// way the CLIs and bench_table2 use the planner.  One sample is one
// compile + plan + validate of one row; rows run round-robin so drift of
// the machine hits every row alike, and every metric is a median or
// geomean over many samples.
//
//   table2-replay  Small and Large C/D/E (leveled): RG replay and expression
//                  evaluation dominate; Large/E alone reaches ~1.6M open
//                  RG nodes, so memory layout shows only here.
//   table2-slrg    Small/Large B (leveled) and A (greedy): the SLRG oracle
//                  dominates B (61k / 714k sets) and A proves "no plan".
#include <algorithm>
#include <map>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/planner.hpp"
#include "core/plrg.hpp"
#include "domains/media.hpp"
#include "inputs.hpp"
#include "model/compile.hpp"
#include "sim/executor.hpp"

namespace perfbench {

namespace {

using namespace sekitei;

WorkCounters counters_of(const core::PlannerStats& s) {
  return {double(s.rg_expansions), double(s.slrg_sets), double(s.replay_calls),
          double(s.sim_rejections)};
}

struct Row {
  std::string name;  // "Small/C"
  const domains::media::Instance* inst = nullptr;
  char scenario = 'C';
  Answer expected;  // cost and work counters from data/expected.json

  std::vector<double> total_ms;         // untraced samples
  std::vector<double> cal_ms;           // the same, calibrated
  std::vector<double> traced_total_ms;  // traced samples (trace runs only)
  std::vector<double> compile_ms, plrg_ms, plan_ms, validate_ms, self_ms;

  core::PlannerStats stats;  // of the last sample
  std::size_t actions = 0;
  std::uint64_t validate_calls = 0;    // per solve (traced)
  std::uint64_t validate_accepts = 0;  // per solve (traced)
};

struct Instances {
  std::unique_ptr<domains::media::Instance> small;
  std::unique_ptr<domains::media::Instance> large;
};

Row make_row(const std::string& net, char scenario, const Instances& in) {
  Row r;
  r.name = net + "/" + scenario;
  r.inst = net == "Small" ? in.small.get() : in.large.get();
  r.scenario = scenario;
  return r;
}

std::vector<Row> make_rows(const std::string& workload, const Instances& in, const Expected& exp) {
  const std::string scenarios = workload == "table2-replay" ? "CDE" : "BA";
  std::vector<Row> rows;
  for (const char sc : scenarios) {
    for (const char* net : {"Small", "Large"}) {
      Row r = make_row(net, sc, in);
      const auto it = exp.table2.find(r.name);
      if (it == exp.table2.end()) throw std::runtime_error("expected.json lacks " + r.name);
      r.expected = it->second;
      rows.push_back(std::move(r));
    }
  }
  return rows;
}

core::PlannerOptions options_for(const Row& row) {
  core::PlannerOptions opt;
  if (row.scenario == 'A') opt.mode = core::PlannerOptions::Mode::Greedy;
  return opt;
}

/// One sample.  Untraced: a single timed region around the three calls a
/// caller makes.  Traced: each public call timed on its own, plus a
/// stand-alone core::Plrg::build (the planner's first phase, timed from
/// outside) and a timer inside the validate callback.
void solve_once(Row& row, bool traced, Report& report) {
  double plrg_ms = 0.0;
  double validate_ms = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t accepts = 0;

  const Clock::time_point t0 = Clock::now();
  const model::CompiledProblem cp =
      model::compile(row.inst->problem, domains::media::scenario(row.scenario));
  const Clock::time_point t_compiled = Clock::now();
  const core::PlannerOptions opt = options_for(row);
  if (traced) {
    const Clock::time_point p0 = Clock::now();
    core::Plrg plrg(cp, opt.mode == core::PlannerOptions::Mode::Greedy
                            ? core::CostFn([](ActionId) { return 1.0; })
                            : core::CostFn([&cp](ActionId a) { return cp.actions[a.index()].cost_lb; }));
    plrg.build(cp.goal_props);
    plrg_ms = ms_since(p0);
  }
  core::Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  const Clock::time_point t_plan = Clock::now();
  const core::PlanResult r = planner.plan([&](const core::Plan& p) {
    if (!traced) return exec.execute(p).feasible;
    const Clock::time_point v0 = Clock::now();
    const bool ok = exec.execute(p).feasible;
    validate_ms += ms_since(v0);
    ++calls;
    accepts += ok ? 1 : 0;
    return ok;
  });
  const Clock::time_point t_end = Clock::now();

  const double total = ms_between(t0, t_end);
  if (traced) {
    row.traced_total_ms.push_back(total);
    row.compile_ms.push_back(ms_between(t0, t_compiled));
    row.plrg_ms.push_back(plrg_ms);
    const double plan_ms = ms_between(t_plan, t_end);
    row.plan_ms.push_back(plan_ms);
    row.validate_ms.push_back(validate_ms);
    row.self_ms.push_back(std::max(plan_ms - plrg_ms - validate_ms, 0.0));
    row.validate_calls = calls;
    row.validate_accepts = accepts;
  } else {
    row.total_ms.push_back(total);
  }
  row.actions = cp.actions.size();
  row.stats = r.stats;

  // Correctness, outside the timed region: verdict, cost, an independent
  // re-execution of the plan, and the work counters.
  ++report.attempted;
  bool ok = true;
  if (!row.expected.cost) {
    if (r.ok()) {
      report.fail(row.name + ": found a plan where none exists");
      ok = false;
    }
  } else if (!r.ok()) {
    report.fail(row.name + ": no plan (" + r.failure + ")");
    ok = false;
  } else if (!same_cost(r.plan->cost_lb, *row.expected.cost)) {
    report.fail(row.name + ": cost " + std::to_string(r.plan->cost_lb) + " != expected " +
                std::to_string(*row.expected.cost));
    ok = false;
  } else if (!sim::Executor(cp).execute(*r.plan).feasible) {
    report.fail(row.name + ": plan does not re-execute");
    ok = false;
  }
  if (ok && !(counters_of(r.stats) == row.expected.work)) {
    report.fail(row.name + ": work counters differ from the recorded ones");
  }
}

template <class F>
double sum_over(const std::vector<Row>& rows, F f) {
  double s = 0.0;
  for (const Row& r : rows) s += f(r);
  return s;
}

}  // namespace

std::map<std::string, Answer> record_table2() {
  Instances in;
  in.small = domains::media::small();
  in.large = domains::media::large();
  std::map<std::string, Answer> out;
  for (const char sc : std::string("ABCDE")) {
    for (const char* net : {"Small", "Large"}) {
      Row row = make_row(net, sc, in);
      const core::PlannerOptions opt = options_for(row);
      const model::CompiledProblem cp = model::compile(row.inst->problem, domains::media::scenario(sc));
      core::Sekitei planner(cp, opt);
      sim::Executor exec(cp);
      const core::PlanResult r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
      Answer& a = out[row.name];
      if (r.ok()) a.cost = r.plan->cost_lb;
      a.work = counters_of(r.stats);
      std::printf("recorded %s\n", row.name.c_str());
      std::fflush(stdout);
    }
  }
  return out;
}

void run_batch(const RunOptions& opt, Report& report) {
  const Expected exp = load_expected(opt.data_dir);
  KernelArena arena;

  // Calibration (NOTES.md): every timed span is reported as if the
  // reference kernel, timed on this thread just before and just after the
  // span (three times each, median), took kRefNominalMs.
  auto ref = [&arena] {
    std::vector<double> t;
    for (int k = 0; k < 3; ++k) t.push_back(ref_kernel_ms(arena));
    return median(std::move(t));
  };
  std::vector<double> ref_ms = {ref()};
  auto factor = [&ref_ms, &ref] {
    ref_ms.push_back(ref());
    return kRefNominalMs / ((ref_ms[ref_ms.size() - 2] + ref_ms.back()) / 2.0);
  };

  // Set-up, repeated so its median is not one timer reading: generate the
  // networks, then one warm-up solve of the workload's first row (Small/C,
  // Small/B), which is not a sample.
  constexpr int kSetupReps = 9;
  std::vector<double> setup_s, setup_raw_s;
  Instances in;
  std::vector<Row> rows;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    in.small = domains::media::small();
    in.large = domains::media::large();
    rows = make_rows(opt.workload, in, exp);
    Report warmup;
    solve_once(rows.front(), false, warmup);
    rows.front().total_ms.clear();
    setup_raw_s.push_back(ms_since(t0) / 1000.0);
    if (!warmup.correct) throw std::runtime_error("warm-up solve failed: " + warmup.notes.front());
    setup_s.push_back(setup_raw_s.back() * factor());
  }

  // Round-robin from a seed-chosen starting row.  Whole cycles only, at
  // least min_cycles of them; traced runs alternate untraced and traced
  // cycles so the tracing overhead is measured under the same drift.  A
  // visit solves its row again until kVisitMs have passed, so a short row
  // (Small/A: ~0.4 ms) gets many samples, not one cold one per cycle.
  constexpr double kVisitMs = 20.0;
  const std::size_t n = rows.size();
  const std::size_t start = static_cast<std::size_t>(opt.seed % n);
  const std::size_t min_cycles = opt.trace ? 4 : 3;
  std::size_t cycles = 0;
  const Clock::time_point begin = Clock::now();
  while (cycles < min_cycles || ms_since(begin) < opt.seconds * 1000.0) {
    const bool traced_cycle = opt.trace && cycles % 2 == 1;
    for (std::size_t k = 0; k < n; ++k) {
      Row& row = rows[(start + k) % n];
      const std::size_t first = row.total_ms.size();
      const Clock::time_point v0 = Clock::now();
      do {
        solve_once(row, traced_cycle, report);
      } while (ms_since(v0) < kVisitMs);
      const double f = factor();
      for (std::size_t i = first; i < row.total_ms.size(); ++i) row.cal_ms.push_back(row.total_ms[i] * f);
    }
    ++cycles;
  }
  const double measured_s = ms_since(begin) / 1000.0;

  std::vector<double> row_p50, raw_p50;
  std::size_t samples = 0;
  double slowest = 0.0, raw_slowest = 0.0;
  std::string slowest_row;
  for (const Row& r : rows) {
    row_p50.push_back(median(r.cal_ms));
    raw_p50.push_back(median(r.total_ms));
    if (row_p50.back() > slowest) {
      slowest = row_p50.back();
      raw_slowest = raw_p50.back();
      slowest_row = r.name;
    }
    samples += r.total_ms.size();
    char line[256];
    const WorkCounters& w = r.expected.work;
    std::snprintf(line, sizeof line,
                  "row %-8s p50 %10.3f ms (raw %10.3f ms)  n=%zu  expansions=%.0f slrg_sets=%.0f "
                  "replay_calls=%.0f sim_rejections=%.0f",
                  r.name.c_str(), row_p50.back(), raw_p50.back(), r.total_ms.size(), w.rg_expansions,
                  w.slrg_sets, w.replay_calls, w.sim_rejections);
    report.note(line);
  }
  report.note("cycles " + std::to_string(cycles) + " in " + std::to_string(measured_s) +
              " s; latency_tail_ms = p50 of the slowest row, " + slowest_row);

  const double geo = geomean(row_p50);
  const double raw_geo = geomean(raw_p50);
  char raw[200];
  std::snprintf(raw, sizeof raw,
                "raw wall clock: setup_s %.4f s, solve_ms_geomean %.4f ms, slowest row %.4f ms; "
                "calibration x%.4f",
                median(setup_raw_s), raw_geo, raw_slowest, kRefNominalMs / median(ref_ms));
  report.note(raw);
  report.add_e2e("setup_s", median(setup_s), "s", setup_s.size());
  report.add_e2e("solve_ms_geomean", geo, "ms", samples);
  report.add_e2e("latency_p50_ms", geo, "ms", samples);
  report.add_e2e("latency_tail_ms", slowest, "ms", samples);
  report.add_e2e("capacity_rps", 1000.0 / geo, "1/s", samples);
  report.add_e2e("verdict_ok_rate",
                 static_cast<double>(report.attempted - report.failed) /
                     static_cast<double>(report.attempted),
                 "ratio", report.attempted);
  report.add_e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.add_layer("host.ref_ms", median(ref_ms), "ms", ref_ms.size());
  if (!opt.trace) return;

  // Per-layer numbers from the traced cycles.  Times are per round-robin
  // cycle (sum over rows of each row's median); counts are per cycle too
  // (they are exact, so any sample gives them).
  auto med_sum = [&rows](std::vector<double> Row::*field) {
    return sum_over(rows, [field](const Row& r) { return median(r.*field); });
  };
  const std::size_t tn = rows.front().traced_total_ms.size();
  const auto st = [](auto field) {
    return [field](const Row& r) { return static_cast<double>(r.stats.*field); };
  };
  const double replay_calls = sum_over(rows, st(&core::PlannerStats::replay_calls));
  const double memo_hits = sum_over(rows, st(&core::PlannerStats::slrg_memo_hits));
  const double memo_all = memo_hits + sum_over(rows, st(&core::PlannerStats::slrg_memo_misses));
  const double v_calls = sum_over(rows, [](const Row& r) { return double(r.validate_calls); });
  const double v_accepts = sum_over(rows, [](const Row& r) { return double(r.validate_accepts); });
  double peak_open = 0.0;
  double limit_hits = 0.0;
  std::vector<double> traced_p50;
  for (const Row& r : rows) {
    peak_open = std::max(peak_open, static_cast<double>(r.stats.rg_peak_open));
    limit_hits += r.stats.hit_search_limit ? 1.0 : 0.0;
    traced_p50.push_back(median(r.traced_total_ms));
  }
  report.add_layer("model.compile_ms", med_sum(&Row::compile_ms), "ms", tn);
  report.add_layer("model.actions", sum_over(rows, [](const Row& r) { return double(r.actions); }),
                   "count", n);
  report.add_layer("core.plrg_ms", med_sum(&Row::plrg_ms), "ms", tn);
  report.add_layer("core.plan_ms", med_sum(&Row::plan_ms), "ms", tn);
  report.add_layer("core.search_self_ms", med_sum(&Row::self_ms), "ms", tn);
  report.add_layer("core.replay_calls", replay_calls, "count", n);
  report.add_layer("core.replay_prune_ratio",
                   sum_over(rows, st(&core::PlannerStats::rg_pruned_by_replay)) /
                       std::max(replay_calls, 1.0),
                   "ratio", n);
  report.add_layer("core.rg_expansions", sum_over(rows, st(&core::PlannerStats::rg_expansions)),
                   "count", n);
  report.add_layer("core.rg_peak_open", peak_open, "count", n);
  report.add_layer("core.slrg_sets", sum_over(rows, st(&core::PlannerStats::slrg_sets)), "count", n);
  report.add_layer("core.slrg_memo_hit_rate", memo_all > 0 ? memo_hits / memo_all : 0.0, "ratio", n);
  report.add_layer("core.limit_hits", limit_hits, "count", n);
  report.add_layer("sim.validate_calls", v_calls, "count", n);
  report.add_layer("sim.validate_ms", med_sum(&Row::validate_ms), "ms", tn);
  report.add_layer("sim.accept_ratio", v_calls > 0 ? v_accepts / v_calls : 0.0, "ratio", n);
  report.add_layer("trace.overhead_pct", (geomean(traced_p50) / raw_geo - 1.0) * 100.0, "%", tn);
}

}  // namespace perfbench
