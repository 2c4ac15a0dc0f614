#include "inputs.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "analysis/symmetry.hpp"
#include "common.hpp"
#include "core/planner.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "sim/executor.hpp"
#include "support/json_reader.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace sekitei;

std::optional<double> cost_or_null(const json::Value& v) {
  if (v.is_null()) return std::nullopt;
  if (!v.is_number()) throw std::runtime_error("expected.json: cost must be a number or null");
  return v.number;
}

const json::Value& member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  if (m == nullptr) throw std::runtime_error(std::string("expected.json: missing ") + key);
  return *m;
}

std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

std::string cost_json(const std::optional<double>& c) {
  if (!c) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", *c);
  return buf;
}

/// Optimal cost proven by the CP backend; throws when its budget runs out
/// (an exhausted search proves nothing and must not be recorded).
std::optional<double> cp_cost(const std::string& domain, const std::string& problem_text) {
  const auto lp = model::load_problem(domain, problem_text);
  model::CompiledProblem cp = model::compile(lp->problem, lp->scenario);
  analysis::attach_symmetry(cp);
  core::PlannerOptions opt;
  opt.mode = core::PlannerOptions::Mode::Cp;
  core::Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  const core::PlanResult r =
      planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  if (r.stats.hit_search_limit || r.stats.stopped) {
    throw std::runtime_error("CP search budget exhausted; cost not proven");
  }
  if (!r.plan) return std::nullopt;
  return r.plan->cost_lb;
}

WorkCounters work_of(const json::Value& v) {
  if (!v.is_array() || v.arr->size() != 4) throw std::runtime_error("expected.json: work must be 4 counts");
  const json::Array& a = *v.arr;
  return {a[0].number, a[1].number, a[2].number, a[3].number};
}

Answer answer_of(const json::Value& v) {
  Answer a;
  a.cost = cost_or_null(member(v, "cost"));
  const json::Value& w = member(v, "work");
  if (!w.is_null()) a.work = work_of(w);
  return a;
}

std::string work_json(const WorkCounters& w) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "[%.0f, %.0f, %.0f, %.0f]", w.rg_expansions, w.slrg_sets,
                w.replay_calls, w.sim_rejections);
  return buf;
}

std::string answer_json(const std::optional<double>& cost, const std::string& work) {
  return "{\"cost\": " + cost_json(cost) + ", \"work\": " + work + "}";
}

}  // namespace

Expected load_expected(const std::string& data_dir) {
  const std::string text = read_file(data_dir + "/expected.json");
  json::Value root;
  std::string error;
  if (!json::parse(text, root, &error)) throw std::runtime_error("expected.json: " + error);
  Expected e;
  for (const auto& [k, v] : *member(root, "table2").obj) e.table2[k] = answer_of(v);
  for (const auto& [k, v] : *member(root, "hit").obj) e.hit[k] = answer_of(v);
  for (const json::Value& v : *member(root, "miss").arr) e.miss.push_back(answer_of(v));
  for (const json::Value& v : *member(root, "cp").arr) e.cp.push_back(work_of(v));
  for (const json::Value& v : *member(root, "repair").arr) {
    RepairAnswer a;
    a.outcome = member(v, "outcome").str;
    a.cost_lb = member(v, "cost_lb").number;
    a.repaired = member(v, "repaired").boolean;
    a.work = work_of(member(v, "work"));
    e.repair.push_back(std::move(a));
  }
  if (e.miss.size() != kMissShapes || e.repair.size() != repair_damages().size() ||
      e.cp.size() != cp_scenarios().size()) {
    throw std::runtime_error("expected.json does not match the input generators; re-record it");
  }
  return e;
}

std::string scenario_text(char name) {
  std::vector<double> m;
  std::vector<double> link;
  switch (name) {
    case 'B': m = {100}; break;
    case 'C': m = {90, 100}; break;
    case 'D': m = {30, 70, 90, 100}; break;
    case 'E': m = {30, 70, 90, 100}; link = {31, 62}; break;
    default: throw std::runtime_error(std::string("no text form for scenario ") + name);
  }
  auto levels = [](const std::string& what, const std::vector<double>& cuts, double scale) {
    std::string s = "  levels " + what + " {";
    for (std::size_t i = 0; i < cuts.size(); ++i) s += (i ? ", " : " ") + fmt(cuts[i] * scale);
    return s + " }\n";
  };
  std::string out = "scenario {\n";
  out += levels("M.ibw", m, 1.0);
  out += levels("T.ibw", m, 0.7);
  out += levels("I.ibw", m, 0.3);
  out += levels("Z.ibw", m, 0.35);
  if (!link.empty()) out += levels("link lbw", link, 1.0);
  return out + "}\n";
}

std::string with_scenario(const std::string& problem_text, char name) {
  const std::size_t at = problem_text.find("scenario {");
  if (at == std::string::npos) throw std::runtime_error("problem text has no scenario section");
  return problem_text.substr(0, at) + scenario_text(name);
}

const std::string& cp_scenarios() {
  static const std::string scenarios = "BCDE";
  return scenarios;
}

std::string miss_variant_text(std::size_t i) {
  const std::size_t shape = miss_shape(i);
  SplitMix64 rng(0x6d6973735f763200ULL + shape * 0x9e3779b97f4a7c15ULL);
  // The two real hit problems' layouts: node names, then links (LAN or WAN).
  struct Link {
    const char* a;
    const char* b;
    bool wan;
  };
  const bool small = shape % 2 == 0;
  const std::vector<const char*> nodes =
      small ? std::vector<const char*>{"n0", "n1", "n2", "n3", "n4", "n_off"}
            : std::vector<const char*>{"s", "a", "b", "c2", "b2", "cl"};
  const std::vector<Link> links =
      small ? std::vector<Link>{{"n0", "n1", false}, {"n1", "n2", false}, {"n2", "n3", true},
                                {"n3", "n4", false}, {"n1", "n_off", false}}
            : std::vector<Link>{{"s", "a", false},  {"a", "b", true},   {"b", "cl", false},
                                {"a", "c2", true},  {"c2", "b2", true}, {"b2", "cl", false}};
  const std::string server = small ? "n0" : "s";
  const std::string client = small ? "n4" : "cl";
  const std::string pre = "v" + std::to_string(i) + "_";

  std::string out = "network {\n";
  for (const char* n : nodes) {
    out += "  node " + pre + n + " { cpu " + fmt(std::round(rng.uniform(27, 34))) + "; }\n";
  }
  for (const Link& l : links) {
    const double bw = std::round(l.wan ? rng.uniform(58, 76) : rng.uniform(130, 160));
    out += "  link " + pre + l.a + " " + pre + l.b + (l.wan ? " wan { lbw " : " lan { lbw ") + fmt(bw) +
           (l.wan ? "; delay 10; }\n" : "; delay 1; }\n");
  }
  out += "}\nproblem {\n  stream M.ibw at " + pre + server + " = [0, 200];\n  preplaced Server at " +
         pre + server + ";\n  forbid Server;\n  restrict Client to " + pre + client +
         ";\n  goal Client at " + pre + client + ";\n}\n";
  return out + scenario_text("CD"[rng.next_below(2)]);
}

const std::vector<DamageCase>& repair_damages() {
  using WD = service::wire::WireDamage;
  static const std::vector<DamageCase> cases = [] {
    std::vector<DamageCase> v;
    auto add = [&v](std::string label, auto fill) {
      DamageCase c;
      c.label = std::move(label);
      fill(c.damage);
      v.push_back(std::move(c));
    };
    add("fail link a-b", [](WD& d) { d.failed_links.push_back({"a", "b"}); });
    add("degrade link a-b lbw 40", [](WD& d) { d.degraded_links.push_back({"a", "b", "lbw", 40}); });
    add("degrade link b-cl lbw 100", [](WD& d) { d.degraded_links.push_back({"b", "cl", "lbw", 100}); });
    add("degrade node b cpu 12", [](WD& d) { d.degraded_nodes.push_back({"b", "cpu", 12}); });
    add("fail node c2", [](WD& d) { d.failed_nodes.push_back("c2"); });
    add("degrade link a-c2 lbw 50", [](WD& d) { d.degraded_links.push_back({"a", "c2", "lbw", 50}); });
    add("fail node b", [](WD& d) { d.failed_nodes.push_back("b"); });
    add("degrade node a cpu 20", [](WD& d) { d.degraded_nodes.push_back({"a", "cpu", 20}); });
    return v;
  }();
  return cases;
}

const std::vector<std::string>& hit_files() {
  static const std::vector<std::string> files = {"tiny.sk", "small.sk", "diamond.sk"};
  return files;
}

int record_expected(const std::string& data_dir) {
  const std::string domain = read_file(data_dir + "/media.sk");
  // EXPERIMENTS.md E4 (Table 2 reproduction); scenario A finds no plan.
  const std::map<std::string, std::optional<double>> table2 = {
      {"Tiny/B", 7.00},   {"Tiny/C", 40.30},  {"Tiny/D", 40.30},      {"Tiny/E", 40.30},
      {"Small/A", std::nullopt}, {"Small/B", 10.00}, {"Small/C", 63.85}, {"Small/D", 63.85},
      {"Small/E", 63.85}, {"Large/A", std::nullopt}, {"Large/B", 10.00}, {"Large/C", 63.85},
      {"Large/D", 63.85}, {"Large/E", 63.85}};
  auto agree = [](const std::optional<double>& a, const std::optional<double>& b) {
    return a.has_value() == b.has_value() && (!a || same_cost(*a, *b));
  };

  // The batch path's answers must be Table 2's before their counters are kept.
  const std::map<std::string, Answer> batch = record_table2();
  std::string out = "{\n  \"table2\": {\n";
  std::size_t i = 0;
  for (const auto& [row, cost] : table2) {
    std::string work = "null";
    if (const auto it = batch.find(row); it != batch.end()) {
      if (!agree(it->second.cost, cost)) throw std::runtime_error(row + ": cost differs from Table 2");
      work = work_json(it->second.work);
    }
    out += "    \"" + row + "\": " + answer_json(cost, work) + (++i < table2.size() ? ",\n" : "\n");
  }

  // The service's answers; plan costs must match the CP backend's proofs.
  const ServiceRecord svc = record_service(data_dir);
  out += "  },\n  \"hit\": {\n";
  i = 0;
  for (const auto& [file, a] : svc.hit) {
    const std::optional<double> proven = cp_cost(domain, read_file(data_dir + "/" + file));
    if (!agree(a.cost, proven)) throw std::runtime_error(file + ": daemon cost differs from CP");
    out += "    \"" + file + "\": " + answer_json(proven, work_json(a.work)) +
           (++i < svc.hit.size() ? ",\n" : "\n");
  }
  out += "  },\n  \"miss\": [\n";
  for (std::size_t s = 0; s < kMissShapes; ++s) {
    std::optional<double> proven;
    try {
      proven = cp_cost(domain, miss_variant_text(s));
    } catch (const std::exception& e) {
      throw std::runtime_error("miss shape " + std::to_string(s) + ": " + e.what());
    }
    if (!agree(svc.miss[s].cost, proven)) {
      throw std::runtime_error("miss shape " + std::to_string(s) + ": daemon cost differs from CP");
    }
    out += "    " + answer_json(proven, work_json(svc.miss[s].work)) + (s + 1 < kMissShapes ? ",\n" : "\n");
  }
  out += "  ],\n  \"cp\": [\n";
  for (std::size_t s = 0; s < svc.cp.size(); ++s) {
    out += "    " + work_json(svc.cp[s]) + (s + 1 < svc.cp.size() ? ",\n" : "\n");
  }
  out += "  ],\n  \"repair\": [\n";
  for (std::size_t d = 0; d < svc.repair.size(); ++d) {
    const RepairAnswer& r = svc.repair[d];
    char line[256];
    std::snprintf(line, sizeof line,
                  "    {\"damage\": \"%s\", \"outcome\": \"%s\", \"cost_lb\": %.2f, \"repaired\": %s, "
                  "\"work\": %s}%s\n",
                  repair_damages()[d].label.c_str(), r.outcome.c_str(), r.cost_lb,
                  r.repaired ? "true" : "false", work_json(r.work).c_str(),
                  d + 1 < svc.repair.size() ? "," : "");
    out += line;
  }
  out += "  ]\n}\n";

  const std::string path = data_dir + "/expected.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace perfbench
