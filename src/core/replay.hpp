// Optimistic resource-map replay of RG plan tails (Section 3.2.3, Fig. 8).
//
// "Whenever a new node is created by regressing the current cheapest node
//  over an action, the plan tail including this action is replayed in the
//  optimistic map of this action."
//
// The replay step itself (merge, condition check and narrowing, effects)
// lives in model/interval_replay.hpp, below both search backends: RG replay
// here and CP propagation (cp/search.cpp) run the same code, so they
// accept exactly the same tails.  The Replayer adds what only the RG needs:
// the `replay.validate` fault point on acceptance replays and a trace-level
// record of each prune.
#pragma once

#include <span>
#include <string>

#include "model/compile.hpp"
#include "model/interval_replay.hpp"

namespace sekitei::core {

using model::ReplayMode;
using model::ResourceMap;

class Replayer {
 public:
  explicit Replayer(const model::CompiledProblem& cp) : cp_(cp), replay_(cp) {}

  /// Replays `steps` (execution order).  `from_init` preloads the initial
  /// resource map — the final acceptance check ("the plan tail successfully
  /// executes in the resource map of the initial state").  Returns false as
  /// soon as an interval empties or a condition fails.
  [[nodiscard]] bool replay(std::span<const ActionId> steps, bool from_init, ReplayMode mode);

  /// The map after the last successful replay (for inspection/tests).
  [[nodiscard]] const ResourceMap& map() const { return replay_.map(); }

  /// Why the last replay failed (empty when it succeeded); formatted on
  /// demand from the recorded prune.
  [[nodiscard]] std::string failure() const { return replay_.failure(); }

  /// Total replay() invocations over this replayer's lifetime — the RG's
  /// dominant inner-loop work item, folded into PlannerStats::replay_calls.
  [[nodiscard]] std::uint64_t calls() const { return replay_.calls(); }

 private:
  const model::CompiledProblem& cp_;
  model::IntervalReplay replay_;
};

}  // namespace sekitei::core
