// The search contract both optimizing backends implement: the RG A* search
// (core/rg.hpp) and the CP branch-and-bound (cp/search.hpp) read the same
// PlannerOptions, report the same PlannerStats inside a PlanResult, and take
// the same per-tick progress sample.  Header-only, so the CP library can
// honour it while sharing no search code with core (it links only model).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/plan.hpp"
#include "core/stats.hpp"
#include "support/log.hpp"
#include "support/stop_token.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

/// Concrete acceptance check for a candidate plan (the simulator hook): a
/// rejected candidate resumes the search, so a returned plan always passed.
using PlanValidator = std::function<bool(const Plan&)>;

struct PlannerOptions {
  enum class Mode {
    Leveled,  // the paper's contribution: cost-optimal leveled planning
    Greedy,   // original Sekitei: plan-length costs + worst-case reservation
    Cp,       // in-house CP branch-and-bound backend (src/cp): same leveled
              // model and cost metric, independent search — proves the same
              // optimum as Leveled, with lex-leader symmetry breaking
  };
  Mode mode = Mode::Leveled;

  /// Phase-3 work budget: A* expansions under Leveled/Greedy, visited
  /// branch-and-bound nodes under Cp.
  std::uint64_t max_rg_expansions = 1u << 21;
  /// Global budget on SLRG set nodes across all oracle queries (RG only).
  std::uint64_t max_slrg_sets = 2u << 20;
  /// Canonical-representative pruning over the node symmetry partition the
  /// analysis layer attaches to the compiled problem: a candidate that
  /// introduces a node unused so far is skipped whenever a smaller-index
  /// interchangeable twin is also still unused — the twin's branch is an
  /// automorphism image of this one at identical cost.  RG and SLRG prune
  /// this way; CP imposes it as lex-leader constraints.  Plans and costs are
  /// unchanged — only which of several interchangeable twins appears in
  /// them.  Ignored (a no-op) when no partition is attached.
  bool symmetry_pruning = true;

  /// Progress observer: invoked from inside the search every
  /// `progress_every` units of search work (see ProgressTick) with a live
  /// snapshot of the statistics so far.  The reference is only valid during
  /// the call.  Observation only — to end the search early use `stop` (the
  /// observer may call StopSource::request_stop()).
  std::function<void(const PlannerStats&)> progress{};
  std::uint64_t progress_every = 8192;

  /// Cooperative stop: polled between phases and inside each phase's loop at
  /// the progress cadence.  On stop the planner returns without a plan,
  /// stats.stopped is set, and the stats carry whatever counters the
  /// completed work produced (a partial snapshot).  Deadlines and explicit
  /// cancellation both arrive through this token (support/stop_token.hpp).
  StopToken stop{};

  /// Anytime planning: when a stop token is armed and the stop fires (or the
  /// search budget runs out) after the search has already seen a feasible
  /// plan, return that incumbent — replay-validated, flagged
  /// stats.suboptimal_on_stop with its cost and the best open lower bound —
  /// instead of discarding it.  Runs without a stop token are unaffected, so
  /// budget-only runs stay byte-identical to exhaustive ones.
  bool anytime = true;
};

struct PlanResult {
  std::optional<Plan> plan;
  PlannerStats stats;
  std::string failure;  // human-readable reason when !plan

  [[nodiscard]] bool ok() const { return plan.has_value(); }
};

/// The one progress sampling point of both search backends.  Each backend
/// counts its unit of search work in stats.rg_expansions (RG expansions, CP
/// visited nodes) and asks due() once per unit; on a due tick it refreshes
/// its own live stats fields and calls sample().
class ProgressTick {
 public:
  /// `component` names the backend in the progress log line.
  ProgressTick(const PlannerOptions& options, const char* component)
      : options_(options),
        component_(component),
        every_(std::max<std::uint64_t>(1, options.progress_every)) {}

  /// One comparison per unit of work, so an idle observer adds nothing
  /// measurable to the search.
  [[nodiscard]] bool due(const PlannerStats& stats) const {
    return stats.rg_expansions % every_ == 0;
  }

  /// Emits the `rg.*` trace counters and the trace-level progress line,
  /// calls the observer, then polls the stop token.  `open` is the size of
  /// the backend's frontier (RG open list, CP DFS depth) and `f` the
  /// admissible f of the node being expanded.  Returns true — with
  /// stats.stopped set — when the search must stop.  The poll follows the
  /// observer so a stop it requests takes effect this very tick.
  [[nodiscard]] bool sample(PlannerStats& stats, std::uint64_t open,
                            [[maybe_unused]] double f) const {
    if (trace::collector()) {
      trace::counter("rg.expansions", static_cast<double>(stats.rg_expansions));
      trace::counter("rg.nodes", static_cast<double>(stats.rg_nodes));
      trace::counter("rg.open", static_cast<double>(open));
      trace::counter("rg.pruned_by_replay", static_cast<double>(stats.rg_pruned_by_replay));
    }
    SEKITEI_LOG_TRACE(component_, "progress", log::kv("expansions", stats.rg_expansions),
                      log::kv("nodes", stats.rg_nodes), log::kv("open", open),
                      log::kv("f", f));
    if (options_.progress) options_.progress(stats);
    if (!options_.stop.stop_requested()) return false;
    stats.stopped = true;
    return true;
  }

 private:
  const PlannerOptions& options_;
  const char* component_;
  std::uint64_t every_;
};

}  // namespace sekitei::core
