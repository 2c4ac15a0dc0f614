#include "core/rg.hpp"

#include <algorithm>
#include <queue>

#include "support/log.hpp"
#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

Rg::Rg(const model::CompiledProblem& cp, Slrg& slrg, const Plrg& plrg,
       std::span<const double> cost)
    : cp_(cp), slrg_(slrg), plrg_(plrg), cost_(cost) {}

bool Rg::independent(ActionId a, ActionId b) {
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
  // Logical support in either direction (through the level closure) makes
  // the pair order-dependent.
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

Rg::EdgeRange Rg::edges_of(SetId set) {
  auto [it, inserted] = edge_ranges_.try_emplace(set);
  if (inserted) {
    cands_.clear();
    for (PropId p : slrg_.sets()[set]) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands_, a);
      }
    }
    it->second = {static_cast<std::uint32_t>(edges_.size()),
                  static_cast<std::uint32_t>(cands_.size())};
    for (ActionId a : cands_) edges_.push_back(Edge{a, SetId{}});
  }
  return it->second;
}

void Rg::append_tail(std::uint32_t idx, std::vector<ActionId>& out) const {
  // Walking up from the node yields the deepest action first, which is
  // execution order.
  for (std::uint32_t cur = idx; pool_[cur].action.valid(); cur = pool_[cur].parent) {
    out.push_back(pool_[cur].action);
  }
}

std::optional<Plan> Rg::search(const std::vector<PropId>& goal_set,
                               const PlannerOptions& options, const PlanValidator& validate,
                               PlannerStats& stats) {
  struct Open {
    double f;
    double g;
    std::uint32_t node;
    bool operator<(const Open& o) const {
      if (f != o.f) return f > o.f;  // min-heap on f
      return g < o.g;                // tie-break: prefer deeper (larger g)
    }
  };
  std::priority_queue<Open> open;
  const ReplayMode replay_mode = options.mode == PlannerOptions::Mode::Greedy
                                     ? ReplayMode::WorstCase
                                     : ReplayMode::Optimistic;
  Replayer replayer(cp_);
  SetStore& sets = slrg_.sets();
  pool_.clear();
  edges_.clear();
  edge_ranges_.clear();
  // Buffers reused across expansions, so the hot loop allocates nothing but
  // pool and open-list growth.  `tail` holds a child's tail: the child's
  // action in tail[0], then the expanded node's tail.
  std::vector<ActionId> tail;
  std::vector<char> used;

  const SetId root = sets.intern(goal_set);
  pool_.push_back(Node{ActionId{}, 0, root, 0.0});
  open.push({slrg_.estimate(root), 0.0, 0});
  stats.rg_nodes = 1;
  stats.rg_peak_open = 1;

  // Anytime incumbent: the cheapest goal-satisfying child seen so far that
  // replays from the initial state and passes validation.  Only tracked when
  // a stop can actually fire, so deadline-free searches stay byte-identical.
  const bool anytime = options.anytime && options.stop.stop_possible();
  struct Incumbent {
    bool have = false;
    std::uint32_t node = 0;
    double g = 0.0;
  } incumbent;
  // Best admissible f still open when the search is cut short (a lower bound
  // on the optimal cost, reported next to the incumbent's cost).
  double frontier_lb = kInf;

  const ProgressTick tick(options, "core.rg");

  while (!open.empty()) {
    const Open cur = open.top();
    open.pop();
    const Node& nd = pool_[cur.node];
    ++stats.rg_expansions;
    if (stats.rg_expansions > options.max_rg_expansions) {
      stats.hit_search_limit = true;
      frontier_lb = open.empty() ? cur.f : std::min(cur.f, open.top().f);
      break;
    }
    if (tick.due(stats)) {
      stats.rg_open_left = open.size();
      stats.replay_calls = replayer.calls();
      // Live frontier bound for observers (the flight recorder's "best f"):
      // cur.f is the smallest admissible f at this expansion, i.e. the same
      // lower bound a stop would report.  Refreshed only under anytime
      // tracking, so stop-free runs report byte-identical stats.
      if (anytime) stats.open_cost_lb = cur.f;
      // A stop the observer requests ends the search this very iteration —
      // before the goal test below can pop the proven optimum and moot the
      // stop (observers stop-on-first-incumbent).
      if (tick.sample(stats, open.size(), cur.f)) {
        frontier_lb = open.empty() ? cur.f : std::min(cur.f, open.top().f);
        break;
      }
    }

    // This node's tail, after a slot for each child's action.
    tail.assign(1, ActionId{});
    append_tail(cur.node, tail);
    const auto cur_tail = std::span<const ActionId>(tail).subspan(1);

    // Goal test: all propositions hold initially and the tail executes in
    // the initial-state resource map.
    if (slrg_.holds_initially(nd.state)) {
      if (replayer.replay(cur_tail, /*from_init=*/true, replay_mode)) {
        Plan plan;
        plan.steps.assign(cur_tail.begin(), cur_tail.end());
        plan.cost_lb = cur.g;
        bool accepted = true;
        if (validate) {
          trace::Span vspan("rg.validate", "search");
          accepted = validate(plan);
        }
        if (accepted) {
          stats.rg_open_left = open.size();
          stats.replay_calls = replayer.calls();
          return plan;
        }
        ++stats.sim_rejections;
        SEKITEI_LOG_DEBUG("core.rg", "validator rejected candidate",
                          log::kv("steps", plan.steps.size()), log::kv("cost_lb", plan.cost_lb),
                          log::kv("rejections", stats.sim_rejections));
      } else {
        ++stats.rg_pruned_by_replay;
      }
      // A rejected candidate node may still have regressions worth trying
      // (e.g. produce more of a stream elsewhere), so fall through.
    }

    // Symmetry pruning state: which nodes the tail-so-far already commits to
    // (nodes of open propositions plus nodes touched by tail actions).  Any
    // transposition of two *unused* interchangeable twins fixes this whole
    // search node, so only the smallest unused twin needs to be introduced.
    const bool sym = options.symmetry_pruning && cp_.symmetric_class_count > 0;
    if (sym) {
      used.assign(cp_.net->node_count(), 0);
      for (PropId p : sets[nd.state]) used[cp_.props.key(p).node] = 1;
      for (ActionId t : cur_tail) {
        const model::GroundAction& act = cp_.actions[t.index()];
        if (act.node.valid()) used[act.node.index()] = 1;
        if (act.node2.valid()) used[act.node2.index()] = 1;
      }
    }
    // True when introducing fresh node `n` is non-canonical: some strictly
    // smaller twin is also unused (and is not the action's other node — the
    // swap must yield a distinct well-formed action).
    auto sym_blocked = [&](NodeId n, NodeId other) {
      if (!n.valid() || used[n.index()] != 0) return false;
      for (const std::uint32_t m : cp_.node_class_members[cp_.node_class[n.index()]]) {
        if (m >= n.index()) break;
        if (used[m] == 0 && (!other.valid() || m != other.index())) return true;
      }
      return false;
    };

    // Candidate actions: achievers of any unsatisfied proposition.
    const EdgeRange range = edges_of(nd.state);
    for (std::uint32_t e = range.begin; e != range.begin + range.count; ++e) {
      const ActionId a = edges_[e].action;
      // Canonical ordering of adjacent independent actions: `a` executes
      // right before this node's action; if they commute, only explore the
      // ascending-id order.  Any plan has an equivalent canonical reordering
      // (adjacent independent swaps preserve the replay outcome exactly), so
      // completeness is kept while the factorial interleavings of parallel
      // stream chains collapse.
      if (nd.action.valid()) {
        const ActionId b = nd.action;
        if (a > b && independent(a, b)) continue;
      }
      if (sym) {
        const model::GroundAction& act = cp_.actions[a.index()];
        if (sym_blocked(act.node, act.node2) || sym_blocked(act.node2, act.node)) {
          ++stats.pruned_placements;
          continue;
        }
      }
      // Never the same ground action twice in one tail: keeps the tree
      // finite even in pathological cost structures, and no stream-delivery
      // plan benefits from repeating an identical leveled action.
      if (std::find(cur_tail.begin(), cur_tail.end(), a) != cur_tail.end()) continue;
      if (!edges_[e].child.valid()) {
        regress_into(cp_, sets[nd.state], a, next_);
        edges_[e].child = sets.intern(next_);
      }
      const SetId nxt = edges_[e].child;
      if (nxt == nd.state) continue;
      const double h = slrg_.estimate(nxt);
      if (h == kInf) continue;

      // Replay the extended tail in the optimistic maps (Fig. 8); prune on
      // resource failure.
      const std::uint32_t child = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{a, cur.node, nxt, cur.g + cost_[a.index()]});
      tail[0] = a;
      if (!replayer.replay(tail, /*from_init=*/false, replay_mode)) {
        ++stats.rg_pruned_by_replay;
        pool_.pop_back();
        continue;
      }
      ++stats.rg_nodes;
      open.push({pool_[child].g + h, pool_[child].g, child});
      if (open.size() > stats.rg_peak_open) stats.rg_peak_open = open.size();

      // Anytime incumbent: a goal-satisfying child is a complete feasible
      // plan even though A* has not proven it optimal yet (it stays in the
      // open list until its f value surfaces).  Record the cheapest one that
      // survives the initial-state replay and validation so a stop mid-proof
      // can still answer with a plan.
      if (anytime && (!incumbent.have || pool_[child].g < incumbent.g) &&
          slrg_.holds_initially(nxt) &&
          replayer.replay(tail, /*from_init=*/true, replay_mode)) {
        bool accepted = true;
        if (validate) {
          Plan candidate;
          candidate.steps = tail;
          candidate.cost_lb = pool_[child].g;
          trace::Span vspan("rg.validate_incumbent", "search");
          accepted = validate(candidate);
        }
        if (accepted) {
          incumbent = {true, child, pool_[child].g};
          ++stats.rg_incumbents;
          stats.incumbent_cost = incumbent.g;
          SEKITEI_LOG_DEBUG("core.rg", "incumbent recorded",
                            log::kv("cost", incumbent.g), log::kv("steps", tail.size()),
                            log::kv("expansions", stats.rg_expansions));
        }
      }
    }
  }
  stats.rg_open_left = open.size();
  stats.replay_calls = replayer.calls();

  // Search cut short with an incumbent in hand: return it (guard-replayed
  // once more from the initial state) instead of discarding a feasible plan.
  if (incumbent.have && (stats.stopped || stats.hit_search_limit)) {
    std::vector<ActionId> steps;
    append_tail(incumbent.node, steps);
    if (replayer.replay(steps, /*from_init=*/true, replay_mode)) {
      stats.replay_calls = replayer.calls();
      stats.suboptimal_on_stop = true;
      stats.incumbent_cost = incumbent.g;
      stats.open_cost_lb = frontier_lb == kInf ? incumbent.g : frontier_lb;
      SEKITEI_LOG_INFO("core.rg", "returning anytime incumbent",
                       log::kv("cost", incumbent.g), log::kv("open_lb", stats.open_cost_lb),
                       log::kv("expansions", stats.rg_expansions));
      Plan plan;
      plan.steps = std::move(steps);
      plan.cost_lb = incumbent.g;
      return plan;
    }
  }
  return std::nullopt;
}

}  // namespace sekitei::core
