// Planner facade: the modified Sekitei algorithm (Section 3.2) and the
// greedy original-Sekitei baseline (Section 2.2) behind one interface.
//
// Typical use:
//   auto cp = model::compile(problem, scenario);
//   core::Sekitei planner(cp);
//   core::PlanResult r = planner.plan();
//   if (r.plan) std::cout << r.plan->str(cp);
#pragma once

#include "core/contract.hpp"
#include "model/compile.hpp"

namespace sekitei::core {

class Sekitei {
 public:
  explicit Sekitei(const model::CompiledProblem& cp, PlannerOptions options = {});

  /// Runs the three phases (PLRG -> SLRG -> RG), or the CP backend under
  /// Mode::Cp.  `validate`, when given, concretely checks candidate plans
  /// (the simulator hook); rejected candidates resume the search, so a
  /// returned plan is always executable.
  [[nodiscard]] PlanResult plan(const PlanValidator& validate = {});

 private:
  /// The three phases; `searched` reports whether phase 3 ran.
  [[nodiscard]] PlanResult plan_leveled(const PlanValidator& validate, bool& searched);

  const model::CompiledProblem& cp_;
  PlannerOptions options_;
};

}  // namespace sekitei::core
