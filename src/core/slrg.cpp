#include "core/slrg.hpp"

#include <algorithm>

#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

void regress_into(const model::CompiledProblem& cp, std::span<const PropId> set, ActionId a,
                  std::vector<PropId>& out) {
  // One merge pass: the members `a` does not support, united with its
  // (sorted unique) preconditions.
  out.clear();
  const std::vector<PropId>& pre = cp.actions[a.index()].pre;
  auto q = pre.begin();
  for (PropId p : set) {
    const auto& ach = cp.achievers_of(p);
    if (std::binary_search(ach.begin(), ach.end(), a)) continue;
    while (q != pre.end() && *q < p) out.push_back(*q++);
    if (q != pre.end() && *q == p) ++q;
    out.push_back(p);
  }
  out.insert(out.end(), q, pre.end());
}

Slrg::Slrg(const model::CompiledProblem& cp, const Plrg& plrg, std::span<const double> cost,
           const PlannerOptions& options)
    : cp_(cp),
      plrg_(plrg),
      cost_(cost),
      max_sets_(options.max_slrg_sets),
      symmetry_pruning_(options.symmetry_pruning),
      stop_(options.stop) {}

void Slrg::cover_sets() {
  const std::size_t n = sets_.size();
  value_.grow_to(n, 0.0);
  kind_.grow_to(n, 0);
  best_g_.grow_to(n, kInf);
}

bool Slrg::holds_initially(SetId set) {
  cover_sets();
  std::uint8_t& k = kind_[set.index()];
  if ((k & kInitKnown) == 0) {
    const std::span<const PropId> props = sets_[set];
    const bool init = std::includes(cp_.init_props.begin(), cp_.init_props.end(), props.begin(),
                                    props.end());
    k |= kInitKnown | (init ? kInit : 0);
  }
  return (k & kInit) != 0;
}

void Slrg::set_exact(SetId s, double v) {
  kind_[s.index()] = static_cast<std::uint8_t>((kind_[s.index()] & ~kWeak) | kExact);
  value_[s.index()] = v;
}

void Slrg::raise_weak(SetId s, double bound) {
  std::uint8_t& k = kind_[s.index()];
  if ((k & kWeak) == 0 || bound > value_[s.index()]) value_[s.index()] = bound;
  k |= kWeak;
}

void Slrg::harvest(double query_result) {
  for (const SetId s : touched_) {
    const double bound = query_result - best_g_[s.index()];
    if (bound <= 0 || (kind_[s.index()] & kExact) != 0) continue;
    raise_weak(s, bound);
  }
}

void Slrg::end_query() {
  for (const SetId s : touched_) best_g_[s.index()] = kInf;
  touched_.clear();
}

double Slrg::estimate(SetId set) {
  if (holds_initially(set)) {
    ++memo_hits_;
    return 0.0;
  }
  if ((kind_[set.index()] & kExact) != 0) {
    ++memo_hits_;
    return value_[set.index()];
  }
  const double base = plrg_.set_cost(sets_[set]);
  if (base == kInf) {
    ++memo_misses_;
    set_exact(set, kInf);
    return kInf;
  }
  if ((kind_[set.index()] & kWeak) != 0) {
    ++memo_hits_;
    return std::max(base, value_[set.index()]);
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
  // memoization afterwards; best_g_ merges duplicate sets.
  auto push_open = [&](double f, double g, std::uint32_t node) {
    open_.push_back({f, g, node});
    std::push_heap(open_.begin(), open_.end());
  };
  pool_.clear();
  open_.clear();
  pool_.push_back(Node{set, UINT32_MAX, 0.0});
  best_g_[set.index()] = 0.0;
  touched_.push_back(set);
  ++generated_;
  ++query_generated;
  push_open(base, 0.0, 0);

  while (!open_.empty()) {
    const Open cur = open_.front();
    std::pop_heap(open_.begin(), open_.end());
    open_.pop_back();
    const SetId cur_set = pool_[cur.node].props;
    if (cur.g > best_g_[cur_set.index()]) continue;  // stale
    const std::span<const PropId> cur_props = sets_[cur_set];

    // Termination: reaching the initial state, or any set whose exact
    // logical cost is already memoized (a node with a perfect heuristic —
    // popping it makes its f-value the optimal answer).  Either way the
    // queried set and the whole optimal path become exact.
    double terminal = kInf;
    if (holds_initially(cur_set)) {
      terminal = 0.0;
    } else if ((kind_[cur_set.index()] & kExact) != 0) {
      terminal = value_[cur_set.index()];
    }
    if (terminal != kInf) {
      const double total = cur.g + terminal;
      set_exact(set, total);
      for (std::uint32_t w = cur.node; w != UINT32_MAX; w = pool_[w].parent) {
        const double rest = total - pool_[w].g;
        const SetId u = pool_[w].props;
        if ((kind_[u.index()] & kExact) == 0) {
          set_exact(u, rest);
        } else if (rest < value_[u.index()]) {
          value_[u.index()] = rest;
        }
      }
      // Harvest admissible lower bounds for every set this query touched:
      // any completion of U costs at least total - g(U) (A* invariant), so
      // later queries start from a much better heuristic.  This is what
      // makes the oracle amortize across the RG's many estimate() calls.
      harvest(total);
      end_query();
      return total;
    }

    // Symmetry pruning: with the canonical twin still unused by cur_props,
    // the transposition swapping the two fixes cur_props and the initial
    // state (pinned nodes are singletons), so the canonical branch achieves
    // the same minimal logical cost — estimates stay exact.
    const bool sym = symmetry_pruning_ && cp_.symmetric_class_count > 0;
    if (sym) {
      used_.assign(cp_.net->node_count(), 0);
      for (PropId p : cur_props) used_[cp_.props.key(p).node] = 1;
    }
    auto sym_blocked = [&](NodeId n, NodeId other) {
      if (!n.valid() || used_[n.index()] != 0) return false;
      for (const std::uint32_t m : cp_.node_class_members[cp_.node_class[n.index()]]) {
        if (m >= n.index()) break;
        if (used_[m] == 0 && (!other.valid() || m != other.index())) return true;
      }
      return false;
    };

    cands_.clear();
    for (PropId p : cur_props) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands_, a);
      }
    }
    for (ActionId a : cands_) {
      if (sym) {
        const model::GroundAction& act = cp_.actions[a.index()];
        if (sym_blocked(act.node, act.node2) || sym_blocked(act.node2, act.node)) {
          ++symmetry_pruned_;
          continue;
        }
      }
      regress_into(cp_, cur_props, a, next_);
      if (std::equal(next_.begin(), next_.end(), cur_props.begin(), cur_props.end())) continue;
      const double g = cur.g + cost_[a.index()];
      // Only a set some node already holds can carry cached data; the
      // candidate is interned below, once it becomes a node itself.
      const SetId known = sets_.find(next_);
      const std::uint8_t kind = known.valid() ? kind_[known.index()] : 0;
      double h;
      if ((kind & kExact) != 0) {
        h = value_[known.index()];  // reuse earlier oracle results
      } else {
        h = plrg_.set_cost(next_);
        if ((kind & kWeak) != 0) h = std::max(h, value_[known.index()]);
      }
      if (h == kInf) continue;
      if (known.valid() && best_g_[known.index()] <= g) continue;
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
        const double frontier = open_.empty() ? cur.f : std::min(cur.f, open_.front().f);
        const double bound = std::max(base, frontier);
        raise_weak(set, bound);
        harvest(bound);
        end_query();
        return bound;
      }
      SetId nid = known;
      if (!nid.valid()) {
        nid = sets_.intern(next_);
        cover_sets();
      }
      if (best_g_[nid.index()] == kInf) touched_.push_back(nid);
      best_g_[nid.index()] = g;
      const std::uint32_t idx = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{nid, cur.node, g});
      ++generated_;
      ++query_generated;
      // Sampled, not per-node: counter events are for trend lines, and the
      // sampling keeps the trace file (and the no-collector cost) small.
      if ((generated_ & 0x3ffu) == 0) trace::counter("slrg.sets", static_cast<double>(generated_));
      push_open(g + h, g, idx);
    }
  }
  // Exhausted without reaching the initial state: logically impossible.
  set_exact(set, kInf);
  end_query();
  return kInf;
}

}  // namespace sekitei::core
