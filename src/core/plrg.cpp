#include "core/plrg.hpp"

#include <algorithm>
#include <queue>

#include "support/log.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

std::vector<double> action_costs(const model::CompiledProblem& cp, bool unit) {
  std::vector<double> out(cp.actions.size(), 1.0);
  if (!unit) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = cp.actions[i].cost_lb;
  }
  return out;
}

Plrg::Plrg(const model::CompiledProblem& cp, std::span<const double> cost, StopToken stop)
    : cp_(cp), cost_(cost), stop_(std::move(stop)) {}

Plrg::Plrg(const model::CompiledProblem& cp, const CostFn& cost, StopToken stop)
    : cp_(cp), stop_(std::move(stop)) {
  owned_cost_.resize(cp.actions.size());
  for (std::uint32_t i = 0; i < owned_cost_.size(); ++i) owned_cost_[i] = cost(ActionId(i));
  cost_ = owned_cost_;
}

void Plrg::build(PropId goal) {
  const PropId goals[] = {goal};
  build(std::span<const PropId>(goals));
}

void Plrg::build(std::span<const PropId> goals) {
  trace::Span span("plrg.build", "graph");
  const std::size_t np = cp_.props.size();
  const std::size_t na = cp_.actions.size();
  prop_cost_.assign(np, kInf);
  prop_seen_.assign(np, false);
  action_seen_.assign(na, false);
  rel_props_.clear();
  rel_actions_.clear();

  // Backward relevance expansion from the goal.
  std::queue<PropId> frontier;
  auto touch_prop = [&](PropId p) {
    if (!prop_seen_[p.index()]) {
      prop_seen_[p.index()] = true;
      rel_props_.push_back(p);
      frontier.push(p);
    }
  };
  for (PropId g : goals) touch_prop(g);
  std::uint64_t pops = 0;
  while (!frontier.empty()) {
    // Cooperative stop, polled at a cadence so the hot loop stays cheap.
    if ((++pops & 0x3ffu) == 0u && stop_.stop_requested()) break;
    const PropId p = frontier.front();
    frontier.pop();
    if (cp_.init_holds(p)) continue;  // already true: no need to regress further
    for (ActionId a : cp_.achievers_of(p)) {
      if (action_seen_[a.index()]) continue;
      action_seen_[a.index()] = true;
      rel_actions_.push_back(a);
      for (PropId q : cp_.actions[a.index()].pre) touch_prop(q);
    }
  }

  // Cost fixpoint over the relevant AND/OR subgraph (Bellman-Ford style;
  // costs only decrease, all action costs are positive, so it terminates).
  for (PropId p : rel_props_) {
    if (cp_.init_holds(p)) prop_cost_[p.index()] = 0.0;
  }
  std::uint64_t sweeps = 0;
  bool changed = true;
  while (changed && !stop_.stop_requested()) {
    changed = false;
    ++sweeps;
    for (ActionId a : rel_actions_) {
      const model::GroundAction& act = cp_.actions[a.index()];
      double pre_max = 0.0;
      for (PropId q : act.pre) {
        pre_max = std::max(pre_max, prop_cost_[q.index()]);
        if (pre_max == kInf) break;
      }
      if (pre_max == kInf) continue;
      const double through = cost_[a.index()] + pre_max;
      // Update every proposition this action supports: its direct effects
      // plus the degradable/upgradable level closure.
      for (PropId e : act.eff) {
        if (through < prop_cost_[e.index()]) {
          prop_cost_[e.index()] = through;
          changed = true;
        }
        const model::PropKey key = cp_.props.key(e);
        if (key.kind != model::PropKind::Avail) continue;
        const model::IfaceLevelInfo& info = cp_.iface_levels[key.entity];
        if (info.tag == spec::LevelTag::Degradable) {
          for (std::uint32_t j = 0; j < key.level; ++j) {
            const PropId q = cp_.props.find_avail(InterfaceId(key.entity), NodeId(key.node), j);
            if (q.valid() && prop_seen_[q.index()] && through < prop_cost_[q.index()]) {
              prop_cost_[q.index()] = through;
              changed = true;
            }
          }
        } else if (info.tag == spec::LevelTag::Upgradable) {
          for (std::uint32_t j = key.level + 1; j < info.levels.count(); ++j) {
            const PropId q = cp_.props.find_avail(InterfaceId(key.entity), NodeId(key.node), j);
            if (q.valid() && prop_seen_[q.index()] && through < prop_cost_[q.index()]) {
              prop_cost_[q.index()] = through;
              changed = true;
            }
          }
        }
      }
    }
  }
  trace::counter("plrg.props", static_cast<double>(rel_props_.size()));
  trace::counter("plrg.actions", static_cast<double>(rel_actions_.size()));
  SEKITEI_LOG_DEBUG("core.plrg", "built", log::kv("props", rel_props_.size()),
                    log::kv("actions", rel_actions_.size()), log::kv("sweeps", sweeps));
}

double Plrg::cost(PropId p) const {
  if (!p.valid() || p.index() >= prop_cost_.size()) return kInf;
  return prop_cost_[p.index()];
}

double Plrg::set_cost(std::span<const PropId> props) const {
  double m = 0.0;
  for (PropId p : props) m = std::max(m, cost(p));
  return m;
}

}  // namespace sekitei::core
