// Interval propagation for the CP backend.
//
// The branch-and-bound search commits to a plan tail (a sequence of leveled
// ground actions, execution order) and asks whether the induced constraint
// store is consistent: every slot interval non-empty, every condition
// satisfiable, every produced output inside its asserted level.  That store
// is the paper's *optimistic resource map* (Section 3.2.3, Fig. 8), so
// propagation is the RG's Optimistic replay: both backends call the one
// interval replay step in model/interval_replay.hpp and accept exactly the
// same tails at the same costs; they only search the space differently.
//
// What the `cp` fuzz oracle checks is therefore search optimality — that RG
// and CP find plans of equal cost — and not the interval semantics, which
// they share.  The independent check of those semantics is the concrete
// simulator (sim::Executor), which re-executes every candidate plan with
// real values.
#pragma once

#include <span>
#include <string>

#include "model/interval_replay.hpp"

namespace sekitei::cp {

class Propagator {
 public:
  explicit Propagator(const model::CompiledProblem& cp) : replay_(cp) {}

  /// Propagates `steps` (execution order) through a fresh store.  With
  /// `from_init` the store is seeded from the initial resource map — the
  /// acceptance check for a complete assignment.  Returns false as soon as an
  /// interval empties or a condition becomes unsatisfiable.
  [[nodiscard]] bool propagate(std::span<const ActionId> steps, bool from_init) {
    return replay_.run(steps, from_init, model::ReplayMode::Optimistic);
  }

  /// Why the last propagation failed (empty when it succeeded).
  [[nodiscard]] std::string failure() const { return replay_.failure(); }

  /// Total propagate() invocations — the search's dominant inner-loop work
  /// item, folded into Stats::propagations.
  [[nodiscard]] std::uint64_t calls() const { return replay_.calls(); }

 private:
  model::IntervalReplay replay_;
};

}  // namespace sekitei::cp
