// Per-proposition Logical Regression Graph (Section 3.2.1).
//
// "The algorithm first constructs a per-proposition logical regression graph
//  (PLRG), which estimates the minimum logical cost of achieving a
//  proposition from the initial state and identifies the set of relevant
//  actions.  Since the PLRG only considers logical preconditions and
//  effects, its cost estimates are a lower bound on the actual cost [...]
//  and therefore can be used as an admissible heuristic."
//
// Structure: an AND/OR graph.  Proposition cost = min over supporting
// actions; action cost = its own (leveled) cost + max over precondition
// costs.  Built by backward relevance expansion from the goal, then solved
// to a fixpoint.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "model/compile.hpp"
#include "support/stop_token.hpp"

namespace sekitei::core {

/// Per-action cost accessor, for callers that build a Plrg on their own.
using CostFn = std::function<double(ActionId)>;

/// Per-action cost table, indexed by ActionId: each action's leveled cost
/// lower bound, or 1.0 everywhere for the greedy baseline's plan-length
/// costs (`unit`).  Built once per plan() and shared by PLRG, SLRG and RG.
[[nodiscard]] std::vector<double> action_costs(const model::CompiledProblem& cp, bool unit);

class Plrg {
 public:
  /// `cost` is indexed by ActionId and must outlive the Plrg.  `stop`
  /// (optional) is polled between fixpoint sweeps and every 1024 relevance
  /// expansions; on stop, build() returns with whatever subgraph and cost
  /// bounds exist so far (the caller is expected to abort planning).
  Plrg(const model::CompiledProblem& cp, std::span<const double> cost, StopToken stop = {});
  /// Tabulates `cost` once per action and owns the table.
  Plrg(const model::CompiledProblem& cp, const CostFn& cost, StopToken stop = {});
  Plrg(const Plrg&) = delete;
  Plrg& operator=(const Plrg&) = delete;

  /// Expands backwards from `goal` and computes the cost fixpoint.
  void build(PropId goal);

  /// Multi-goal variant: expands from every goal proposition.
  void build(std::span<const PropId> goals);

  /// Minimum logical cost of achieving p from the initial state; +inf when
  /// logically unreachable.
  [[nodiscard]] double cost(PropId p) const;

  [[nodiscard]] bool reachable(PropId p) const { return cost(p) < kInf; }

  /// Admissible estimate for a set: the most expensive member (costs of set
  /// members can overlap, so max — not sum — is the sound choice).
  [[nodiscard]] double set_cost(std::span<const PropId> props) const;

  /// Actions reachable in the backward expansion — the planner only ever
  /// branches over these.
  [[nodiscard]] const std::vector<ActionId>& relevant_actions() const { return rel_actions_; }
  [[nodiscard]] bool relevant(ActionId a) const { return action_seen_[a.index()]; }

  [[nodiscard]] std::size_t prop_nodes() const { return rel_props_.size(); }
  [[nodiscard]] std::size_t action_nodes() const { return rel_actions_.size(); }

 private:
  const model::CompiledProblem& cp_;
  std::vector<double> owned_cost_;  // filled only by the CostFn constructor
  std::span<const double> cost_;
  StopToken stop_;
  std::vector<double> prop_cost_;    // by PropId; +inf = unreachable
  std::vector<bool> prop_seen_;      // relevance marks
  std::vector<bool> action_seen_;
  std::vector<PropId> rel_props_;
  std::vector<ActionId> rel_actions_;
};

}  // namespace sekitei::core
