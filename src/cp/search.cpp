#include "cp/search.hpp"

#include <algorithm>

#include "cp/bound.hpp"
#include "model/interval_replay.hpp"
#include "support/log.hpp"
#include "support/sorted_vec.hpp"
#include "support/timer.hpp"

namespace sekitei::cp {

namespace {

/// Regression of a proposition set over one action: drop what the action
/// supports (through the cross-level closure), add its preconditions.
std::vector<PropId> regress(const model::CompiledProblem& cp, const std::vector<PropId>& set,
                            ActionId a) {
  std::vector<PropId> out;
  out.reserve(set.size() + cp.actions[a.index()].pre.size());
  for (PropId p : set) {
    const auto& ach = cp.achievers_of(p);
    if (!std::binary_search(ach.begin(), ach.end(), a)) out.push_back(p);
  }
  for (PropId q : cp.actions[a.index()].pre) sorted_insert(out, q);
  return out;
}

class Search {
 public:
  Search(const model::CompiledProblem& cp, const core::PlannerOptions& options,
         const core::PlanValidator& validate, Bound& bound, core::PlannerStats& stats)
      : cp_(cp),
        opt_(options),
        validate_(validate),
        bound_(bound),
        prop_(cp),
        st_(stats),
        tick_(options, "cp.search") {}

  /// Fills `r` (plan, failure, the search's stats and time_search_ms).
  void run(core::PlanResult& r);

 private:
  struct Node {
    ActionId action;           // invalid for the root
    std::uint32_t parent = 0;  // pool index
    std::vector<PropId> state;
    double g = 0.0;
  };
  struct Child {
    double f = 0.0;
    ActionId action;
    std::uint32_t node = 0;  // pool index
  };
  struct Frame {
    std::uint32_t pool_base = 0;  // pool size before this frame's children
    std::vector<Child> kids;      // sorted best-bound-first
    std::size_t next = 0;
  };

  [[nodiscard]] bool independent(ActionId a, ActionId b);
  /// Appends the tail of node `idx` to `out` in execution order.
  void append_tail(std::uint32_t idx, std::vector<ActionId>& out) const;
  void enter(std::uint32_t idx);

  const model::CompiledProblem& cp_;
  const core::PlannerOptions& opt_;
  const core::PlanValidator& validate_;
  Bound& bound_;
  model::IntervalReplay prop_;  // propagation: the optimistic replay step
  core::PlannerStats& st_;
  const core::ProgressTick tick_;

  std::vector<Node> pool_;
  std::vector<Frame> stack_;
  // Reused by enter(): a child's tail (its action in [0], then the entered
  // node's tail), the branching candidates and the lex-leader marks.
  std::vector<ActionId> tail_;
  std::vector<ActionId> cands_;
  std::vector<char> used_;
  std::vector<std::vector<VarId>> sorted_vars_;

  bool has_best_ = false;
  double best_g_ = 0.0;
  std::vector<ActionId> best_steps_;

  bool abort_ = false;
  double current_f_ = 0.0;  // f of the subtree being entered (frontier part)

  // Iterative cost bounding: each DFS pass explores only f <= threshold_;
  // min_exceed_ collects the smallest f cut off, becoming the next
  // threshold.  completed_lb_ is the certified bound from exhausted passes.
  double threshold_ = kInf;
  double min_exceed_ = kInf;
  double completed_lb_ = 0.0;
};

bool Search::independent(ActionId a, ActionId b) {
  if (sorted_vars_.empty()) sorted_vars_.resize(cp_.actions.size());
  auto vars_of = [&](ActionId id) -> const std::vector<VarId>& {
    std::vector<VarId>& v = sorted_vars_[id.index()];
    if (v.empty() && !cp_.actions[id.index()].slot_vars.empty()) {
      v = cp_.actions[id.index()].slot_vars;
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    return v;
  };
  if (sorted_intersects(vars_of(a), vars_of(b))) return false;
  for (PropId p : cp_.actions[b.index()].pre) {
    const auto& ach = cp_.achievers_of(p);
    if (std::binary_search(ach.begin(), ach.end(), a)) return false;
  }
  for (PropId p : cp_.actions[a.index()].pre) {
    const auto& ach = cp_.achievers_of(p);
    if (std::binary_search(ach.begin(), ach.end(), b)) return false;
  }
  return true;
}

void Search::append_tail(std::uint32_t idx, std::vector<ActionId>& out) const {
  // Deepest node's action first == execution order.
  for (std::uint32_t cur = idx; pool_[cur].action.valid(); cur = pool_[cur].parent) {
    out.push_back(pool_[cur].action);
  }
}

void Search::enter(std::uint32_t idx) {
  ++st_.rg_expansions;
  if (st_.rg_expansions > opt_.max_rg_expansions) {
    st_.hit_search_limit = true;
    abort_ = true;
    return;
  }
  if (tick_.due(st_)) {
    st_.replay_calls = prop_.calls();
    if (tick_.sample(st_, stack_.size(), current_f_)) {
      abort_ = true;
      return;
    }
  }

  // The pool reallocates as children are appended; copy what outlives pushes.
  const std::vector<PropId> state = pool_[idx].state;
  const double g = pool_[idx].g;
  const ActionId via = pool_[idx].action;
  tail_.assign(1, ActionId{});
  append_tail(idx, tail_);
  const auto tail = std::span<const ActionId>(tail_).subspan(1);

  // Complete assignment: every open proposition holds initially and the tail
  // propagates from the initial store.  Bound pruning at the parent already
  // guarantees g < incumbent here, so any accepted assignment improves.
  if (sorted_subset(state, cp_.init_props)) {
    if (prop_.run(tail, /*from_init=*/true, model::ReplayMode::Optimistic)) {
      bool accepted = true;
      if (validate_) {
        core::Plan candidate;
        candidate.steps.assign(tail.begin(), tail.end());
        candidate.cost_lb = g;
        accepted = validate_(candidate);
      }
      if (accepted) {
        if (!has_best_ || g < best_g_) {
          has_best_ = true;
          best_g_ = g;
          best_steps_.assign(tail.begin(), tail.end());
          ++st_.rg_incumbents;
          st_.incumbent_cost = g;
          SEKITEI_LOG_DEBUG("cp.search", "incumbent recorded", log::kv("cost", g),
                            log::kv("steps", best_steps_.size()),
                            log::kv("branches", st_.rg_expansions));
        }
      } else {
        ++st_.sim_rejections;
      }
    } else {
      ++st_.rg_pruned_by_replay;
    }
    // A rejected assignment's regressions may still lead somewhere (e.g.
    // produce more of a stream elsewhere), so fall through and branch.
  }

  // Lex-leader symmetry state: nodes the assignment so far commits to.
  const bool sym = opt_.symmetry_pruning && cp_.symmetric_class_count > 0;
  if (sym) {
    used_.assign(cp_.net->node_count(), 0);
    for (PropId p : state) used_[cp_.props.key(p).node] = 1;
    for (ActionId t : tail) {
      const model::GroundAction& act = cp_.actions[t.index()];
      if (act.node.valid()) used_[act.node.index()] = 1;
      if (act.node2.valid()) used_[act.node2.index()] = 1;
    }
  }
  auto sym_blocked = [&](NodeId n, NodeId other) {
    if (!n.valid() || used_[n.index()] != 0) return false;
    for (const std::uint32_t m : cp_.node_class_members[cp_.node_class[n.index()]]) {
      if (m >= n.index()) break;
      if (used_[m] == 0 && (!other.valid() || m != other.index())) return true;
    }
    return false;
  };

  // Branching candidates: achievers of any open proposition.
  cands_.clear();
  for (PropId p : state) {
    if (cp_.init_holds(p)) continue;
    for (ActionId a : cp_.achievers_of(p)) sorted_insert(cands_, a);
  }

  Frame fr;
  fr.pool_base = static_cast<std::uint32_t>(pool_.size());
  for (ActionId a : cands_) {
    // Canonical ordering of adjacent independent actions: explore only the
    // ascending-id order of a commuting pair.
    if (via.valid() && a > via && independent(a, via)) continue;
    if (sym) {
      const model::GroundAction& act = cp_.actions[a.index()];
      if (sym_blocked(act.node, act.node2) || sym_blocked(act.node2, act.node)) {
        ++st_.pruned_placements;
        continue;
      }
    }
    // Never the same ground action twice in one tail (the RG rule).
    if (std::find(tail.begin(), tail.end(), a) != tail.end()) continue;
    std::vector<PropId> nxt = regress(cp_, state, a);
    if (nxt == state) continue;
    const double h = bound_.estimate(nxt);
    if (h == kInf) continue;
    const double g2 = g + cp_.actions[a.index()].cost_lb;
    const double f = g2 + h;
    if (f > threshold_) {
      min_exceed_ = std::min(min_exceed_, f);
      continue;
    }
    if (has_best_ && f >= best_g_) continue;
    const std::uint32_t child = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Node{a, idx, std::move(nxt), g2});
    tail_[0] = a;
    if (!prop_.run(tail_, /*from_init=*/false, model::ReplayMode::Optimistic)) {
      ++st_.rg_pruned_by_replay;
      pool_.pop_back();
      continue;
    }
    ++st_.rg_nodes;
    fr.kids.push_back({f, a, child});
  }
  std::sort(fr.kids.begin(), fr.kids.end(), [](const Child& x, const Child& y) {
    if (x.f != y.f) return x.f < y.f;
    return x.action < y.action;
  });
  stack_.push_back(std::move(fr));
  if (stack_.size() > st_.rg_peak_open) st_.rg_peak_open = stack_.size();
}

void Search::run(core::PlanResult& r) {
  Stopwatch watch;

  for (PropId gp : cp_.goal_props) {
    if (!bound_.reachable(gp)) {
      st_.logically_unreachable = true;
      st_.time_search_ms = watch.elapsed_ms();
      r.failure = "goal " + cp_.describe(gp) + " is logically unreachable";
      return;
    }
  }

  // Iterative cost bounding (branch-and-bound with rising f-thresholds,
  // IDA*-flavoured): a depth-first pass bounded by `threshold_` either
  // exhausts the whole f <= threshold_ slice — proving any incumbent it
  // found optimal (cut subtrees have f > threshold_ >= incumbent g, and the
  // bound is admissible: f of a node lower-bounds every goal below it) or,
  // with no incumbent and nothing cut, proving infeasibility — or it raises
  // the threshold to the cheapest cut f and dives again.  This is what
  // keeps plain DFS sound AND complete here: an unbounded first dive can
  // wander a deep junk subtree forever before finding any incumbent to
  // prune with, while each bounded pass keeps tails near the optimum.
  const double root_f = bound_.estimate(cp_.goal_props);
  threshold_ = root_f;
  while (!abort_) {
    min_exceed_ = kInf;
    pool_.clear();
    stack_.clear();
    pool_.push_back(Node{ActionId{}, 0, cp_.goal_props, 0.0});
    ++st_.rg_nodes;
    current_f_ = root_f;
    enter(0);

    while (!abort_ && !stack_.empty()) {
      Frame& fr = stack_.back();
      if (fr.next >= fr.kids.size()) {
        // Subtree exhausted: reclaim its pool slice (strict LIFO discipline
        // keeps memory proportional to the current branch, not the tree).
        pool_.resize(fr.pool_base);
        stack_.pop_back();
        continue;
      }
      const Child kid = fr.kids[fr.next++];
      // Re-check against the incumbent, which may have improved since the
      // child was generated.
      if (has_best_ && kid.f >= best_g_) continue;
      current_f_ = kid.f;
      enter(kid.node);
    }
    if (abort_) break;
    if (has_best_) break;          // pass completed: the incumbent is optimal
    if (min_exceed_ == kInf) break;  // nothing cut: the whole space is empty
    completed_lb_ = min_exceed_;   // optimum proven > threshold_
    threshold_ = min_exceed_;
    SEKITEI_LOG_TRACE("cp.search", "raising threshold", log::kv("threshold", threshold_),
                      log::kv("branches", st_.rg_expansions));
  }

  st_.replay_calls = prop_.calls();
  st_.time_search_ms = watch.elapsed_ms();

  if (!abort_) {
    // Search space exhausted: the answer is exact.
    if (has_best_) {
      r.plan = core::Plan{std::move(best_steps_), best_g_};
    } else {
      r.failure = "no resource-feasible plan exists under the given levels";
    }
    SEKITEI_LOG_INFO("cp.search", r.ok() ? "optimum proven" : "infeasibility proven",
                     log::kv("cost", r.ok() ? best_g_ : 0.0),
                     log::kv("branches", st_.rg_expansions), log::kv("nodes", st_.rg_nodes),
                     log::kv("ms", st_.time_search_ms));
    return;
  }

  // Cut short: the min f over the unexplored frontier bounds the optimum
  // (f of a node lower-bounds every goal below it), and so does the largest
  // exhausted threshold; report the tighter of the two.
  double frontier = std::min(current_f_, min_exceed_);
  for (const Frame& fr : stack_) {
    for (std::size_t j = fr.next; j < fr.kids.size(); ++j) {
      frontier = std::min(frontier, fr.kids[j].f);
    }
  }
  st_.open_cost_lb = std::max(frontier, completed_lb_);

  const bool anytime = opt_.anytime && opt_.stop.stop_possible();
  if (anytime && has_best_) {
    SEKITEI_LOG_INFO("cp.search", "returning anytime incumbent", log::kv("cost", best_g_),
                     log::kv("open_lb", frontier), log::kv("branches", st_.rg_expansions));
    r.plan = core::Plan{std::move(best_steps_), best_g_};
    st_.suboptimal_on_stop = true;
  } else {
    r.failure = st_.stopped ? "stopped before the search completed"
                            : "search limit exhausted before finding a plan";
  }
}

}  // namespace

core::PlanResult solve(const model::CompiledProblem& cp, const core::PlannerOptions& options,
                       const core::PlanValidator& validate) {
  core::PlanResult r;
  r.stats.total_actions = cp.actions.size();
  Stopwatch watch;
  Bound bound(cp);
  r.stats.time_graph_ms = watch.elapsed_ms();
  Search(cp, options, validate, bound, r.stats).run(r);
  return r;
}

}  // namespace sekitei::cp
