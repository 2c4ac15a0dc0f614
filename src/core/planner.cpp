#include "core/planner.hpp"

#include "core/plrg.hpp"
#include "core/rg.hpp"
#include "core/slrg.hpp"
#include "cp/search.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

Sekitei::Sekitei(const model::CompiledProblem& cp, PlannerOptions options)
    : cp_(cp), options_(options) {}

PlanResult Sekitei::plan(const PlanValidator& validate) {
  trace::Span plan_span("planner.plan");
  bool searched = false;  // the search phase ran (its time histogram only
                          // sees real runs)
  PlanResult result;
  if (options_.mode == PlannerOptions::Mode::Cp) {
    result = cp::solve(cp_, options_, validate);
    searched = !result.stats.logically_unreachable;
  } else {
    result = plan_leveled(validate, searched);
  }

  // Single exit point of every mode: the same metrics and summary line.
  [[maybe_unused]] const char* mode_name =
      options_.mode == PlannerOptions::Mode::Cp       ? "cp"
      : options_.mode == PlannerOptions::Mode::Greedy ? "greedy"
                                                      : "leveled";
  SEKITEI_METRIC(metrics::registry()
                     .histogram("planner.graph_ms", {{"mode", mode_name}})
                     .observe(result.stats.time_graph_ms));
  if (searched) {
    SEKITEI_METRIC(metrics::registry()
                       .histogram("planner.search_ms", {{"mode", mode_name}})
                       .observe(result.stats.time_search_ms));
  }
  SEKITEI_LOG_INFO("core.planner", result.ok() ? "plan found" : "no plan",
                   log::kv("mode", mode_name),
                   log::kv("plan_actions", result.ok() ? result.plan->size() : 0),
                   log::kv("rg_expansions", result.stats.rg_expansions),
                   log::kv("graph_ms", result.stats.time_graph_ms),
                   log::kv("search_ms", result.stats.time_search_ms));
  return result;
}

PlanResult Sekitei::plan_leveled(const PlanValidator& validate, bool& searched) {
  PlanResult result;
  result.stats.total_actions = cp_.actions.size();
  Stopwatch watch;

  const std::vector<double> cost =
      action_costs(cp_, /*unit=*/options_.mode == PlannerOptions::Mode::Greedy);

  // Phase 1: per-proposition logical regression graph (all goals at once).
  Plrg plrg(cp_, cost, options_.stop);
  plrg.build(std::span<const PropId>(cp_.goal_props));

  // Phase 2 oracle; constructed up front so that every exit path below can
  // report the same stats snapshot through `finish`.
  Slrg slrg(cp_, plrg, cost, options_);

  // Whatever path ends the search, the stats carry the same complete
  // snapshot (graph sizes, memo counters, limit flags).
  auto finish = [&](std::string failure) -> PlanResult {
    result.stats.plrg_props = plrg.prop_nodes();
    result.stats.plrg_actions = plrg.action_nodes();
    result.stats.slrg_sets = slrg.set_count();
    result.stats.slrg_memo_hits = slrg.memo_hits();
    result.stats.slrg_memo_misses = slrg.memo_misses();
    result.stats.pruned_placements += slrg.symmetry_pruned();
    result.stats.hit_search_limit = result.stats.hit_search_limit || slrg.hit_limit();
    result.failure = std::move(failure);
    return std::move(result);
  };

  // A stop during the PLRG build leaves a truncated graph whose costs must
  // not be interpreted (a goal can look unreachable merely because expansion
  // was cut short), so bail out before the reachability checks.
  if (options_.stop.stop_requested()) {
    result.stats.stopped = true;
    result.stats.time_graph_ms = watch.elapsed_ms();
    return finish("stopped during graph construction");
  }

  for (PropId g : cp_.goal_props) {
    if (!plrg.reachable(g)) {
      result.stats.logically_unreachable = true;
      result.stats.time_graph_ms = watch.elapsed_ms();
      return finish("goal " + cp_.describe(g) + " is logically unreachable");
    }
  }

  // Phase 2: set costs (the memoized SLRG oracle), seeded by the goal query.
  const std::vector<PropId>& goal_set = cp_.goal_props;
  double logical_cost;
  {
    trace::Span span("slrg.seed_goal_query", "graph");
    logical_cost = slrg.c_logical(goal_set);
  }
  result.stats.time_graph_ms = watch.elapsed_ms();
  SEKITEI_LOG_DEBUG("core.planner", "graph construction complete",
                    log::kv("plrg_props", plrg.prop_nodes()),
                    log::kv("plrg_actions", plrg.action_nodes()),
                    log::kv("slrg_sets", slrg.set_count()),
                    log::kv("c_logical", logical_cost),
                    log::kv("ms", result.stats.time_graph_ms));
  if (options_.stop.stop_requested()) {
    result.stats.stopped = true;
    return finish("stopped during graph construction");
  }
  if (logical_cost == kInf) {
    result.stats.logically_unreachable = true;
    return finish("no logically consistent action sequence reaches the goal");
  }

  // Phase 3: the main regression graph with optimistic-map replay.
  watch.restart();
  Rg rg(cp_, slrg, plrg, cost);
  searched = true;
  std::optional<Plan> plan;
  {
    trace::Span span("rg.search", "search");
    plan = rg.search(goal_set, options_, validate, result.stats);
  }
  result.stats.time_search_ms = watch.elapsed_ms();

  if (plan) {
    result.plan = std::move(plan);
    return finish({});
  }
  if (result.stats.stopped) return finish("stopped before the search completed");
  return finish(result.stats.hit_search_limit || slrg.hit_limit()
                    ? "search limit exhausted before finding a plan"
                    : "no resource-feasible plan exists under the given levels");
}

}  // namespace sekitei::core
