// Set Logical Regression Graph (Section 3.2.2).
//
// "Given the minimum proposition cost, the second phase computes the minimum
//  logical cost of achieving a *set* of propositions.  This phase takes into
//  account logical interactions between actions, but ignores resource
//  restrictions. [...] The construction of the SLRG employs A* search and
//  uses the logical cost of achieving propositions obtained from the PLRG as
//  an estimate of the remaining cost."
//
// The SLRG is a *graph* over proposition sets (duplicate sets are merged —
// "The RG is a tree, while the PLRG and SLRG are general graphs").  We use
// it as a memoized oracle: estimate(S) runs an A* regression from S to the
// initial state in the resource-free relaxation and returns the exact
// minimal logical cost (the paper's "logical cost of achieving a set of
// propositions"), caching S and every set on the optimal path.  The RG uses
// these values as its admissible remaining-cost estimate; because the oracle
// is exact for the relaxation, the RG only ever expands plan tails whose
// f-value is a true lower bound — this is what keeps the RG small despite
// being a tree.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/contract.hpp"
#include "core/plrg.hpp"
#include "model/compile.hpp"

namespace sekitei::core {

class Slrg {
 public:
  /// Budget for a single query.  A query that exhausts it still returns an
  /// admissible bound (the smallest f left in its open list) and the result
  /// is negatively cached, so no set is ever searched expensively twice.
  static constexpr std::uint64_t kMaxSetsPerQuery = 20000;
  /// Budget for the very first query (the goal set): it seeds the exact and
  /// weak caches that all later queries and the whole RG lean on, so it is
  /// worth a much deeper search.
  static constexpr std::uint64_t kMaxSetsFirstQuery = 256u << 10;

  /// Reads the global set budget (max_slrg_sets), symmetry_pruning and stop
  /// from `options`.  Symmetry pruning keeps estimates exact: a twin
  /// transposition fixes the queried set and the initial state, so the
  /// canonical branch costs exactly the same.  `stop` is polled every 1024
  /// generated set nodes; a stopped query ends like a budget-exhausted one —
  /// it returns the admissible frontier bound so the caller's search stays
  /// sound while it winds down.  `cost` is the per-action cost table
  /// (action_costs()); it must outlive the Slrg.
  Slrg(const model::CompiledProblem& cp, const Plrg& plrg, std::span<const double> cost,
       const PlannerOptions& options = {});

  /// Exact minimal logical cost of achieving `set` from the initial state;
  /// +inf when logically impossible.  Falls back to the (admissible but
  /// weaker) PLRG max estimate if the node budget is exhausted.
  [[nodiscard]] double estimate(const std::vector<PropId>& set);

  /// Convenience: the logical plan cost for the goal set.
  [[nodiscard]] double c_logical(const std::vector<PropId>& goal_set) {
    return estimate(goal_set);
  }

  [[nodiscard]] bool hit_limit() const { return hit_limit_; }

  /// Number of distinct set nodes ever generated (Table 2, column 7).
  [[nodiscard]] std::size_t set_count() const { return generated_; }

  /// Oracle memoization effectiveness: queries answered from the exact/weak
  /// caches (or trivially) vs queries that ran an A* regression search.
  [[nodiscard]] std::uint64_t memo_hits() const { return memo_hits_; }
  [[nodiscard]] std::uint64_t memo_misses() const { return memo_misses_; }

  /// Candidate regressions skipped by symmetry pruning across all queries.
  [[nodiscard]] std::uint64_t symmetry_pruned() const { return symmetry_pruned_; }

 private:
  struct SetHash {
    std::size_t operator()(const std::vector<PropId>& v) const noexcept;
  };

  /// Folds the bound `query_result - g(U)` into weak_ for every set the
  /// finished query generated.
  void harvest(std::unordered_map<std::vector<PropId>, double, SetHash>& best_g,
               double query_result);

  const model::CompiledProblem& cp_;
  const Plrg& plrg_;
  std::span<const double> cost_;
  std::uint64_t max_sets_;
  bool symmetry_pruning_;
  StopToken stop_;
  std::unordered_map<std::vector<PropId>, double, SetHash> exact_;
  /// Admissible lower bounds for sets whose search hit the per-query budget.
  std::unordered_map<std::vector<PropId>, double, SetHash> weak_;
  std::uint64_t generated_ = 0;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
  std::uint64_t symmetry_pruned_ = 0;
  bool first_query_ = true;
  bool hit_limit_ = false;
};

/// Regression of a proposition set over an action: (set \ supported) + pre.
/// `supported` uses the achiever index (so level closure participates).
[[nodiscard]] std::vector<PropId> regress_set(const model::CompiledProblem& cp,
                                              const std::vector<PropId>& set, ActionId a);

/// True when the action supports at least one member of the set.
[[nodiscard]] bool action_supports_any(const model::CompiledProblem& cp,
                                       const std::vector<PropId>& set, ActionId a);

}  // namespace sekitei::core
