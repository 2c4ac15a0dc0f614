// CP branch-and-bound over the leveled regression space (ROADMAP item 1).
//
// The decision variables are exactly the paper's: which component goes on
// which node, and at which levels the streams flow — each decision is the
// commitment to one leveled ground action, so a complete assignment is a
// plan tail.  The search is depth-first branch-and-bound: dive best-bound
// first, record validated incumbents, and prune any partial assignment whose
// g + lower bound reaches the incumbent's cost.  Admissible bounds
// (cp::Bound) come from hmax plus per-component best-level relaxations.
//
// Constraint propagation: a committed tail induces a constraint store —
// every slot interval non-empty, every condition satisfiable, every produced
// output inside its asserted level — and a partial assignment whose store
// empties is rejected.  That store is the paper's *optimistic resource map*
// (Section 3.2.3, Fig. 8), so propagation is the RG's Optimistic replay:
// both backends call the one interval replay step (model/interval_replay.hpp)
// and accept exactly the same tails at the same costs; they only search the
// space differently.
//
// Symmetry breaking: the node equivalence classes attached by
// analysis::attach_symmetry become lex-leader constraints — a fresh node of
// a class may only be introduced if every smaller unused twin is, too
// (identical to the RG rule; PlannerOptions::symmetry_pruning toggles it for
// CP-with-vs-without experiments).
//
// The regression move set, pruning rules and acceptance checks mirror the RG
// search exactly.  That is deliberate: both backends then provably agree on
// feasibility and optimal cost while sharing no search code — only the
// search contract (core/contract.hpp: options, stats, progress tick) —
// which is what makes CP an independent optimality oracle for the fuzzer
// (`--oracles cp`) and a comparable competitor in bench_cp.  What the `cp`
// oracle checks is therefore search optimality, not the interval semantics
// the backends share; those are checked by the concrete simulator
// (sim::Executor), which re-executes every candidate plan with real values.
//
// Stats mapping onto the contract: rg_expansions counts visited nodes (the
// max_rg_expansions budget unit), rg_nodes created nodes, replay_calls
// propagations, rg_pruned_by_replay propagation failures, pruned_placements
// lex-leader cuts and rg_peak_open the deepest DFS stack; time_graph_ms is
// the Bound construction.
#pragma once

#include "core/contract.hpp"
#include "model/compile.hpp"

namespace sekitei::cp {

/// Solves the compiled problem to cost-optimality (leveled cost_lb metric).
/// Reads max_rg_expansions, symmetry_pruning, the progress cadence, stop and
/// anytime from `options` (mode and max_slrg_sets do not apply).  A returned
/// plan is proven optimal unless stats.suboptimal_on_stop is set.
[[nodiscard]] core::PlanResult solve(const model::CompiledProblem& cp,
                                     const core::PlannerOptions& options = {},
                                     const core::PlanValidator& validate = {});

}  // namespace sekitei::cp
