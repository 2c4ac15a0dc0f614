// The interval replay step (Section 3.2.3, Fig. 8): the one implementation
// of the optimistic resource-map semantics, shared by RG tail replay
// (core::Replayer) and CP propagation (cp/search.hpp).
//
// "Before execution of each subsequent action in the plan tail, the interval
//  produced by execution of the previous action is intersected with the
//  optimistic interval of the current action, and new optimistic intervals
//  are added if necessary."
//
// A replay executes a plan tail over a map VarId -> Interval.  Each step
//   1. merges the action slots' optimistic intervals into the map
//      (degradable/upgradable inputs may shift the interval downward/upward
//      instead of strictly intersecting),
//   2. checks that every condition is satisfiable (Optimistic mode) or holds
//      for every value (WorstCase mode, the original greedy Sekitei), and
//      narrows single-variable sides with the sides already evaluated,
//   3. applies the effects by interval arithmetic and asserts produced
//      output levels.
// Any empty interval or failed condition prunes the tail.  A prune records a
// static reason and the failing formula's source; failure() formats the
// text only when asked, so the search's prunes allocate nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/compile.hpp"
#include "model/vars.hpp"
#include "support/interval.hpp"

namespace sekitei::model {

enum class ReplayMode : unsigned char {
  Optimistic,  // leveled planner and CP: conditions must be satisfiable
  WorstCase,   // greedy baseline: initial choices collapse to their maximum
               // and conditions must hold with certainty
};

/// The optimistic resource map.
using ResourceMap = VarMap<Interval>;

/// Why a replay stopped.  `reason` is static text (null when the replay
/// succeeded); `source` is the failing condition's or effect's text, if any.
struct Prune {
  const char* reason = nullptr;
  const std::string* source = nullptr;
  ActionId action{};  // the step that pruned; invalid for a pre-step rejection

  /// "<reason>" or "<reason>: <source>"; empty when nothing was pruned.
  [[nodiscard]] std::string text() const;
};

class IntervalReplay {
 public:
  explicit IntervalReplay(const CompiledProblem& cp) : cp_(cp) {}

  /// Replays `steps` (execution order) through a fresh map.  `from_init`
  /// preloads the initial resource map — the acceptance check for a complete
  /// plan.  Returns false at the first prune.
  [[nodiscard]] bool run(std::span<const ActionId> steps, bool from_init, ReplayMode mode);

  /// Counts a replay that is rejected before any step runs (an injected
  /// fault); `reason` must be static text.  Always returns false.
  bool reject(const char* reason);

  /// The map after the last run (for inspection and tests).
  [[nodiscard]] const ResourceMap& map() const { return map_; }
  [[nodiscard]] const Prune& prune() const { return prune_; }
  /// Why the last replay failed (empty when it succeeded).
  [[nodiscard]] std::string failure() const { return prune_.text(); }
  /// run() and reject() invocations over this object's lifetime.
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  [[nodiscard]] bool step(const GroundAction& act, ReplayMode mode);
  bool fail(const char* reason, const std::string* source = nullptr) {
    prune_.reason = reason;
    prune_.source = source;
    return false;
  }

  const CompiledProblem& cp_;
  ResourceMap map_;
  std::vector<Interval> scratch_;
  Prune prune_;
  std::uint64_t calls_ = 0;
};

}  // namespace sekitei::model
