// Main Regression Graph (Section 3.2.3).
//
// "The final phase of the algorithm is construction of the main regression
//  graph (RG).  The RG contains totally ordered plan tails and is expanded
//  using A* search.  The logical cost of achieving a set of propositions is
//  used as an estimate of the remaining cost. [...] Since resource failures
//  depend on the plan tail, it is not possible to reuse nodes in the RG.
//  The RG is a tree, while the PLRG and SLRG are general graphs."
//
// Every expansion replays the tail through the optimistic resource maps
// (core/replay.hpp) and prunes on failure — the early detection of
// quality-of-service violations the paper highlights.  The search ends when
// a node's proposition set holds in the initial state AND the tail replays
// in the initial-state resource map (plus an optional external concrete
// validation, e.g. the simulator).
#pragma once

#include <optional>
#include <unordered_map>

#include "core/contract.hpp"
#include "core/replay.hpp"
#include "core/slrg.hpp"
#include "support/paged_vec.hpp"

namespace sekitei::core {

class Rg {
 public:
  /// `cost` is the per-action cost table (action_costs()); it must outlive
  /// the Rg.
  Rg(const model::CompiledProblem& cp, Slrg& slrg, const Plrg& plrg,
     std::span<const double> cost);

  /// Reads the budget (max_rg_expansions), symmetry_pruning, the progress
  /// cadence, stop and anytime from `options`; Greedy mode replays
  /// WorstCase, every other mode Optimistic.  `validate` (optional) gets the
  /// candidate plan after it replays from the initial state; returning false
  /// rejects it and resumes the search.
  ///
  /// Anytime mode records the best feasible plan (replayed from the initial
  /// state and validated) as goal-satisfying children are generated; when
  /// the stop fires — or the expansion budget runs out — before optimality
  /// is proven, it returns that incumbent flagged stats.suboptimal_on_stop.
  /// Only active while a stop can actually fire (stop.stop_possible()), so
  /// unstoppable runs do byte-identical work to a non-anytime search.
  [[nodiscard]] std::optional<Plan> search(const std::vector<PropId>& goal_set,
                                           const PlannerOptions& options,
                                           const PlanValidator& validate, PlannerStats& stats);

 private:
  struct Node {
    ActionId action;           // invalid for the root
    std::uint32_t parent = 0;  // index into pool; root points to itself
    SetId state;               // propositions still to achieve (interned)
    double g = 0.0;
  };
  /// A candidate regression of an expanded set: the action and, once first
  /// needed, the set it regresses to.
  struct Edge {
    ActionId action;
    SetId child;
  };
  struct EdgeRange {
    std::uint32_t begin = 0;  // index into edges_
    std::uint32_t count = 0;
  };

  /// The candidate edges of `set` (achievers of its members that do not
  /// hold initially), built on the set's first expansion.  Many RG nodes
  /// share a set, so regression and interning run once per (set, action).
  [[nodiscard]] EdgeRange edges_of(SetId set);

  /// Appends the tail of node `idx` to `out` in execution order (deepest
  /// action first).
  void append_tail(std::uint32_t idx, std::vector<ActionId>& out) const;

  /// True when `a` (executing immediately before `b`) commutes with `b`:
  /// disjoint located variables and no logical support either way.
  [[nodiscard]] bool independent(ActionId a, ActionId b);

  const model::CompiledProblem& cp_;
  Slrg& slrg_;
  const Plrg& plrg_;
  std::span<const double> cost_;
  PagedVec<Node> pool_;
  PagedVec<Edge> edges_;
  std::unordered_map<SetId, EdgeRange> edge_ranges_;
  std::vector<ActionId> cands_;
  std::vector<PropId> next_;
  std::vector<std::vector<VarId>> sorted_vars_;  // per action, lazily filled
};

}  // namespace sekitei::core
