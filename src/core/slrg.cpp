#include "core/slrg.hpp"

#include <algorithm>
#include <queue>

#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

std::size_t Slrg::SetHash::operator()(const std::vector<PropId>& v) const noexcept {
  return hash_sorted(v);
}

bool action_supports_any(const model::CompiledProblem& cp, const std::vector<PropId>& set,
                         ActionId a) {
  for (PropId p : set) {
    const auto& ach = cp.achievers_of(p);
    if (std::binary_search(ach.begin(), ach.end(), a)) return true;
  }
  return false;
}

std::vector<PropId> regress_set(const model::CompiledProblem& cp,
                                const std::vector<PropId>& set, ActionId a) {
  std::vector<PropId> out;
  out.reserve(set.size() + cp.actions[a.index()].pre.size());
  for (PropId p : set) {
    const auto& ach = cp.achievers_of(p);
    if (!std::binary_search(ach.begin(), ach.end(), a)) out.push_back(p);
  }
  for (PropId q : cp.actions[a.index()].pre) sorted_insert(out, q);
  return out;
}

Slrg::Slrg(const model::CompiledProblem& cp, const Plrg& plrg, std::span<const double> cost,
           const PlannerOptions& options)
    : cp_(cp),
      plrg_(plrg),
      cost_(cost),
      max_sets_(options.max_slrg_sets),
      symmetry_pruning_(options.symmetry_pruning),
      stop_(options.stop) {}

void Slrg::harvest(std::unordered_map<std::vector<PropId>, double, SetHash>& best_g,
                   double query_result) {
  for (auto& [props, g] : best_g) {
    const double bound = query_result - g;
    if (bound <= 0 || exact_.count(props)) continue;
    auto [it, inserted] = weak_.emplace(props, bound);
    if (!inserted && bound > it->second) it->second = bound;
  }
}

double Slrg::estimate(const std::vector<PropId>& set) {
  if (sorted_subset(set, cp_.init_props)) {
    ++memo_hits_;
    return 0.0;
  }
  if (auto it = exact_.find(set); it != exact_.end()) {
    ++memo_hits_;
    return it->second;
  }
  const double base = plrg_.set_cost(set);
  if (base == kInf) {
    ++memo_misses_;
    exact_.emplace(set, kInf);
    return kInf;
  }
  if (auto it = weak_.find(set); it != weak_.end()) {
    ++memo_hits_;
    return std::max(base, it->second);
  }
  ++memo_misses_;
  if (generated_ >= max_sets_) {
    hit_limit_ = true;
    return base;  // admissible fallback, not memoized as exact
  }
  // Budget policy: the first (goal) query gets a deep search — it seeds the
  // caches everything else leans on.  If even that query cannot finish, the
  // problem's logical shell is too wide for exact set costs to pay off
  // (e.g. uniform-cost scenario B); later queries then run on a shoestring
  // and the RG leans on the PLRG bounds plus the harvested weak bounds.
  const std::uint64_t per_query = first_query_ ? kMaxSetsFirstQuery : kMaxSetsPerQuery;
  first_query_ = false;
  const std::uint64_t query_budget = std::min(max_sets_ - generated_, per_query);
  std::uint64_t query_generated = 0;

  // A* graph search from `set` toward the initial state in the resource-free
  // relaxation.  Nodes live in a pool so the optimal path can be walked for
  // memoization afterwards.
  struct Node {
    std::vector<PropId> props;
    double g = 0.0;
    std::uint32_t parent = UINT32_MAX;
  };
  struct Open {
    double f;
    double g;
    std::uint32_t node;
    bool operator<(const Open& o) const {
      if (f != o.f) return f > o.f;
      return g < o.g;  // tie-break: prefer deeper
    }
  };
  std::vector<Node> pool;
  std::priority_queue<Open> open;
  std::unordered_map<std::vector<PropId>, double, SetHash> best_g;

  pool.push_back(Node{set, 0.0, UINT32_MAX});
  best_g.emplace(set, 0.0);
  ++generated_;
  ++query_generated;
  open.push({base, 0.0, 0});

  while (!open.empty()) {
    const Open cur = open.top();
    open.pop();
    const std::vector<PropId> cur_props = pool[cur.node].props;  // copy: pool may grow
    {
      auto it = best_g.find(cur_props);
      if (it != best_g.end() && cur.g > it->second) continue;  // stale
    }

    // Termination: reaching the initial state, or any set whose exact
    // logical cost is already memoized (a node with a perfect heuristic —
    // popping it makes its f-value the optimal answer).  Either way the
    // queried set and the whole optimal path become exact.
    double terminal = kInf;
    if (sorted_subset(cur_props, cp_.init_props)) {
      terminal = 0.0;
    } else if (auto it = exact_.find(cur_props); it != exact_.end() && it->second != kInf) {
      terminal = it->second;
    }
    if (terminal != kInf) {
      const double total = cur.g + terminal;
      exact_[set] = total;
      for (std::uint32_t w = cur.node; w != UINT32_MAX; w = pool[w].parent) {
        const double rest = total - pool[w].g;
        auto [it, inserted] = exact_.emplace(pool[w].props, rest);
        if (!inserted && rest < it->second) it->second = rest;
      }
      // Harvest admissible lower bounds for every set this query touched:
      // any completion of U costs at least total - g(U) (A* invariant), so
      // later queries start from a much better heuristic.  This is what
      // makes the oracle amortize across the RG's many estimate() calls.
      harvest(best_g, total);
      return total;
    }

    // Symmetry pruning: with the canonical twin still unused by cur_props,
    // the transposition swapping the two fixes cur_props and the initial
    // state (pinned nodes are singletons), so the canonical branch achieves
    // the same minimal logical cost — estimates stay exact.
    const bool sym = symmetry_pruning_ && cp_.symmetric_class_count > 0;
    std::vector<char> used;
    if (sym) {
      used.assign(cp_.net->node_count(), 0);
      for (PropId p : cur_props) used[cp_.props.key(p).node] = 1;
    }
    auto sym_blocked = [&](NodeId n, NodeId other) {
      if (!n.valid() || used[n.index()] != 0) return false;
      for (const std::uint32_t m : cp_.node_class_members[cp_.node_class[n.index()]]) {
        if (m >= n.index()) break;
        if (used[m] == 0 && (!other.valid() || m != other.index())) return true;
      }
      return false;
    };

    std::vector<ActionId> cands;
    for (PropId p : cur_props) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands, a);
      }
    }
    for (ActionId a : cands) {
      if (sym) {
        const model::GroundAction& act = cp_.actions[a.index()];
        if (sym_blocked(act.node, act.node2) || sym_blocked(act.node2, act.node)) {
          ++symmetry_pruned_;
          continue;
        }
      }
      std::vector<PropId> nxt = regress_set(cp_, cur_props, a);
      if (nxt == cur_props) continue;
      const double g = cur.g + cost_[a.index()];
      double h;
      if (auto it = exact_.find(nxt); it != exact_.end()) {
        h = it->second;  // reuse earlier oracle results
      } else {
        h = plrg_.set_cost(nxt);
        if (auto wt = weak_.find(nxt); wt != weak_.end()) h = std::max(h, wt->second);
      }
      if (h == kInf) continue;
      auto it = best_g.find(nxt);
      if (it != best_g.end() && it->second <= g) continue;
      // Budget exhaustion and cooperative stop share one exit: both return
      // the admissible frontier bound.  The stop poll rides the same cadence
      // as the trace counter sampling so the hot loop pays nothing extra.
      const bool budget_out = query_generated >= query_budget;
      if (budget_out ||
          ((query_generated & 0x3ffu) == 0u && stop_.stop_requested())) {
        // The smallest f left in the open list is still an admissible bound
        // on the true logical cost (standard A* invariant).
        if (budget_out) hit_limit_ = true;
        // Any solution either extends the node being expanded (cost >= its
        // f) or passes through the open list (cost >= min open f).
        const double frontier = open.empty() ? cur.f : std::min(cur.f, open.top().f);
        const double bound = std::max(base, frontier);
        auto [it2, ins2] = weak_.emplace(set, bound);
        if (!ins2 && bound > it2->second) it2->second = bound;
        harvest(best_g, bound);
        return bound;
      }
      best_g[nxt] = g;
      const std::uint32_t idx = static_cast<std::uint32_t>(pool.size());
      pool.push_back(Node{std::move(nxt), g, cur.node});
      ++generated_;
      ++query_generated;
      // Sampled, not per-node: counter events are for trend lines, and the
      // sampling keeps the trace file (and the no-collector cost) small.
      if ((generated_ & 0x3ffu) == 0) trace::counter("slrg.sets", static_cast<double>(generated_));
      open.push({g + h, g, idx});
    }
  }
  // Exhausted without reaching the initial state: logically impossible.
  exact_[set] = kInf;
  return kInf;
}

}  // namespace sekitei::core
