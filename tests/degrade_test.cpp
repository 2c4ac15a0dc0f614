// The graceful-degradation ladder end to end: anytime incumbents returned on
// a mid-search stop, the greedy retry on the reserved budget, the master
// switch that restores strict pre-ladder behavior, and a parity table that
// pins every deterministically reachable exit of the plain and the repair
// ladder.
#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "support/fault.hpp"
#include "testing/workload.hpp"

namespace sekitei::service {
namespace {

namespace media = domains::media;

std::shared_ptr<const model::LoadedProblem> loaded(std::unique_ptr<media::Instance> inst,
                                                   char scenario) {
  return make_loaded(std::move(inst->domain), std::move(inst->net), std::move(inst->problem),
                     media::scenario(scenario));
}

TEST(DegradeTest, DegradedNamesExitCodeAndOk) {
  EXPECT_STREQ(outcome_name(Outcome::Degraded), "degraded");
  EXPECT_EQ(outcome_exit_code(Outcome::Degraded), 6);
  EXPECT_STREQ(ladder_step_name(LadderStep::Primary), "primary");
  EXPECT_STREQ(ladder_step_name(LadderStep::AnytimeIncumbent), "anytime_incumbent");
  EXPECT_STREQ(ladder_step_name(LadderStep::GreedyFallback), "greedy_fallback");

  PlanResponse r;
  r.outcome = Outcome::Degraded;
  EXPECT_TRUE(r.ok());
}

TEST(DegradeTest, MidSearchStopReturnsTheAnytimeIncumbent) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.id = "anytime";
  req.problem = loaded(media::small(), 'C');
  req.progress_every = 1;
  // Deterministic stop: the moment the search records its first incumbent
  // (a goal-satisfying child awaiting its optimality proof), cut it short.
  StopSource stop = req.stop;
  req.progress = [stop](const core::PlannerStats& s) mutable {
    if (s.rg_incumbents > 0) stop.request_stop();
  };

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::AnytimeIncumbent);
  EXPECT_TRUE(r.ok());
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_TRUE(r.stats.stopped);
  EXPECT_TRUE(r.stats.suboptimal_on_stop);
  EXPECT_GE(r.stats.rg_incumbents, 1u);
  // The incumbent's cost can exceed the admissible bound still open, never
  // undercut it — the reported optimality gap is cost - open_cost_lb >= 0.
  EXPECT_GT(r.stats.incumbent_cost, 0.0);
  EXPECT_LE(r.stats.open_cost_lb, r.stats.incumbent_cost + 1e-9);
  EXPECT_FALSE(r.failure.empty());

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"outcome\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"ladder\":\"anytime_incumbent\""), std::string::npos);
  EXPECT_NE(json.find("\"suboptimal_on_stop\":true"), std::string::npos);
}

TEST(DegradeTest, ExhaustedPrimaryBudgetFallsBackToGreedy) {
  PlanningEngine engine({.workers = 1});

  // A fat WAN link makes the worst-case (greedy) plan feasible: the stream
  // is forwarded whole, no splitting needed.
  media::Params p;
  p.wan_bw = 200.0;

  PlanRequest req;
  req.id = "fallback";
  req.problem = loaded(media::tiny(p), 'C');
  req.deadline_ms = 10000.0;  // a generous total budget...
  req.progress_every = 1;

  // ...but the primary rung's share "expires" with no incumbent: Fail mode
  // at engine.plan, the twin of repair.plan on the repair ladder.
  fault::arm("engine.plan", 1, fault::Mode::Fail);
  const PlanResponse r = engine.plan(std::move(req));
  fault::disarm_all();
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::GreedyFallback);
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_GT(r.fallback_ms, 0.0);
  EXPECT_FALSE(r.failure.empty());

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"ladder\":\"greedy_fallback\""), std::string::npos);
  EXPECT_NE(json.find("\"fallback_ms\":"), std::string::npos);
}

TEST(DegradeTest, LadderDisabledRestoresStrictDeadlineBehavior) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.problem = loaded(media::small(), 'C');
  req.deadline_ms = 1e-6;  // expires before planning starts
  req.degrade = false;

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(r.ladder, LadderStep::Primary);
}

TEST(DegradeTest, LadderPolicyDoesNotChangeUnstoppedPlans) {
  // Acceptance criterion: with no deadline pressure the ladder is inert —
  // plans are byte-identical whether the policy is on or off.
  PlanningEngine engine({.workers = 1});

  PlanRequest on;
  on.problem = loaded(media::tiny(), 'C');
  const PlanResponse with_ladder = engine.plan(std::move(on));
  ASSERT_EQ(with_ladder.outcome, Outcome::Solved);

  PlanRequest off;
  off.problem = loaded(media::tiny(), 'C');
  off.degrade = false;
  const PlanResponse without_ladder = engine.plan(std::move(off));
  ASSERT_EQ(without_ladder.outcome, Outcome::Solved);

  EXPECT_EQ(with_ladder.plan_text, without_ladder.plan_text);
  EXPECT_EQ(with_ladder.ladder, LadderStep::Primary);
  EXPECT_EQ(without_ladder.ladder, LadderStep::Primary);
}

TEST(DegradeTest, NoIncumbentExpiredBudgetWithoutFallbackIsDeadlineExceeded) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.problem = loaded(media::small(), 'C');
  req.deadline_ms = 1e-6;  // answered before any rung runs

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(outcome_exit_code(r.outcome), 3);
}

// ---------------------------------------------------------------------------
// Ladder-exit parity: every exit of both ladders that a test can reach
// without racing the clock, pinned on the fields a client sees.  Mid-search
// stops are driven from the progress callback, so the work counters of a
// stopped rung are as deterministic as those of a completed one.

/// One line per exit: verdict, rung, repair flag, the four work counters and
/// the failure text.
std::string exit_line(const PlanResponse& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %s repaired=%d rg=%llu slrg=%llu replay=%llu sim=%llu | ",
                outcome_name(r.outcome), ladder_step_name(r.ladder), r.repaired ? 1 : 0,
                static_cast<unsigned long long>(r.stats.rg_expansions),
                static_cast<unsigned long long>(r.stats.slrg_sets),
                static_cast<unsigned long long>(r.stats.replay_calls),
                static_cast<unsigned long long>(r.stats.sim_rejections));
  return buf + r.failure;
}

/// A progress observer that fires the request's deadline on its first tick
/// and stays inert afterwards (so a later rung runs undisturbed).
std::function<void(const core::PlannerStats&)> expire_on_first_tick(StopSource stop) {
  auto fired = std::make_shared<bool>(false);
  return [stop, fired](const core::PlannerStats&) mutable {
    if (*fired) return;
    *fired = true;
    stop.arm_deadline_at_ns(1);  // an instant long past
  };
}

/// Value-capped chain: logically reachable, provably infeasible on
/// producible values (the search exhausts, the pre-flight proves it).
constexpr const char* kCappedDomain = R"(
param demand = 90;
param serverCap = 60;
interface M {
  property ibw degradable;
  cross {
    M.ibw' := min(M.ibw, link.lbw);
    link.lbw -= min(M.ibw, link.lbw);
  }
  cost 1;
}
interface A {
  property x degradable;
  cross {
    A.x' := min(A.x, link.lbw);
    link.lbw -= min(A.x, link.lbw);
  }
  cost 1;
}
component Server {
  implements M;
  effects { M.ibw := serverCap; }
  cost 1;
}
component Amp {
  requires M;
  implements A;
  conditions { node.cpu >= 1; }
  effects {
    A.x := M.ibw;
    node.cpu -= 1;
  }
  cost 1;
}
component Client {
  requires A;
  conditions { A.x >= demand; }
  cost 1;
}
)";

constexpr const char* kCappedProblem = R"(
network {
  node n0 { cpu 30; }
  node n1 { cpu 30; }
  link n0 n1 lan { lbw 150; delay 1; }
}
problem {
  goal Client at n1;
}
scenario {
  levels M.ibw { 50 }
  levels A.x { 50 }
}
)";

std::shared_ptr<const model::LoadedProblem> capped() {
  return model::load_problem(kCappedDomain, kCappedProblem);
}

PlanRequest plain(std::shared_ptr<const model::LoadedProblem> problem) {
  PlanRequest req;
  req.problem = std::move(problem);
  req.progress_every = 1;
  return req;
}

TEST(LadderParityTest, PlainSolved) {
  PlanningEngine engine({.workers = 1});
  EXPECT_EQ(exit_line(engine.plan(plain(loaded(media::tiny(), 'C')))),
            "solved primary repaired=0 rg=52 slrg=301 replay=298 sim=0 | ");
}

TEST(LadderParityTest, PlainAnytimeIncumbent) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req = plain(loaded(media::small(), 'C'));
  StopSource stop = req.stop;
  req.progress = [stop](const core::PlannerStats& s) mutable {
    if (s.rg_incumbents > 0) stop.request_stop();
  };
  EXPECT_EQ(exit_line(engine.plan(std::move(req))),
            "degraded anytime_incumbent repaired=0 rg=2024 slrg=4441 replay=16686 sim=0 | "
            "cancelled fired mid-search; returning best incumbent (cost 63.850, open lower "
            "bound 63.850)");
}

TEST(LadderParityTest, PlainGreedyFallback) {
  PlanningEngine engine({.workers = 1});
  media::Params p;
  p.wan_bw = 200.0;  // the worst-case reservation fits: greedy can answer
  PlanRequest req = plain(loaded(media::tiny(p), 'C'));
  req.deadline_ms = 60000.0;
  req.progress = expire_on_first_tick(req.stop);
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(exit_line(r),
            "degraded greedy_fallback repaired=0 rg=5 slrg=23 replay=13 sim=0 | "
            "deadline fired before the optimal search finished; greedy fallback plan (cost "
            "lb 2.000)");
  EXPECT_GT(r.fallback_ms, 0.0);
}

TEST(LadderParityTest, PlainDeadlineGreedyRescueFails) {
  // Default tiny: the greedy rung runs but its worst-case reservation finds
  // nothing, which proves nothing — the primary rung's deadline verdict
  // (and stats) stand.
  PlanningEngine engine({.workers = 1});
  PlanRequest req = plain(loaded(media::tiny(), 'C'));
  req.deadline_ms = 60000.0;
  req.progress = expire_on_first_tick(req.stop);
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_GT(r.fallback_ms, 0.0);
  EXPECT_EQ(exit_line(r),
            "deadline_exceeded primary repaired=0 rg=1 slrg=28 replay=0 sim=0 | "
            "stopped before the search completed");
}

TEST(LadderParityTest, PlainDeadlineWithoutFallbackRung) {
  // A greedy-mode request has a one-rung ladder.
  PlanningEngine engine({.workers = 1});
  PlanRequest req = plain(loaded(media::small(), 'C'));
  req.mode = core::PlannerOptions::Mode::Greedy;
  req.deadline_ms = 60000.0;
  req.progress = expire_on_first_tick(req.stop);
  EXPECT_EQ(exit_line(engine.plan(std::move(req))),
            "deadline_exceeded primary repaired=0 rg=1 slrg=58 replay=0 sim=0 | "
            "stopped before the search completed");
}

TEST(LadderParityTest, PlainCancelled) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req = plain(loaded(media::small(), 'C'));
  StopSource stop = req.stop;
  req.progress = [stop](const core::PlannerStats&) mutable { stop.request_stop(); };
  EXPECT_EQ(exit_line(engine.plan(std::move(req))),
            "cancelled primary repaired=0 rg=1 slrg=492 replay=0 sim=0 | "
            "stopped before the search completed");
}

TEST(LadderParityTest, PlainSearchInfeasible) {
  PlanningEngine engine({.workers = 1});
  EXPECT_EQ(exit_line(engine.plan(plain(capped()))),
            "infeasible primary repaired=0 rg=13 slrg=9 replay=21 sim=0 | "
            "no resource-feasible plan exists under the given levels");
}

TEST(LadderParityTest, PlainPreflightInfeasible) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req = plain(capped());
  req.preflight = true;
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(exit_line(r),
            "infeasible primary repaired=0 rg=0 slrg=0 replay=0 sim=0 | "
            "SK001 goal placed(Client, n1): unreachable under interval-relaxed "
            "reachability: no sequence of ground actions composes producible values that "
            "satisfy every precondition on the way to this goal; the instance is provably "
            "infeasible");
  EXPECT_TRUE(r.preflight_rejected);
  EXPECT_EQ(engine.preflight_rejections(), 1u);
}

/// A solved base request with the plan echoed, and a repair request against
/// it under `damage` (empty: the damage is filled in by the caller).
struct Deployed {
  std::shared_ptr<const model::LoadedProblem> problem;
  PlanResponse base;
  core::Plan prior;

  explicit Deployed(std::shared_ptr<const model::LoadedProblem> lp) : problem(std::move(lp)) {
    PlanningEngine engine({.workers = 1});
    PlanRequest req;
    req.problem = problem;
    req.echo_plan = true;
    base = engine.plan(std::move(req));
    for (const std::uint32_t idx : base.plan_steps) prior.steps.emplace_back(idx);
  }

  [[nodiscard]] PlanRequest repair(repair::Damage damage) const {
    PlanRequest req = plain(problem);
    req.repair.emplace();
    req.repair->prior_plan = prior;
    req.repair->choices = base.choices;
    req.repair->damage = std::move(damage);
    return req;
  }

  /// The WAN link the deployed plan crosses.
  [[nodiscard]] LinkId wan_link() const {
    const model::CompiledProblem cp = model::compile(problem->problem, problem->scenario);
    for (const ActionId a : prior.steps) {
      const model::GroundAction& act = cp.actions[a.index()];
      if (act.kind == model::ActionKind::Cross &&
          problem->net.link(act.link).cls == net::LinkClass::Wan) {
        return act.link;
      }
    }
    return LinkId{};
  }
};

Deployed diamond() { return Deployed(loaded(media::diamond(), 'C')); }

TEST(LadderParityTest, RepairedInPlace) {
  const Deployed d = diamond();
  ASSERT_TRUE(d.base.ok()) << d.base.failure;
  repair::Damage dmg;
  dmg.failed_links.push_back(d.wan_link());
  PlanningEngine engine({.workers = 1});
  EXPECT_EQ(exit_line(engine.plan(d.repair(dmg))),
            "solved primary repaired=1 rg=26 slrg=134 replay=147 sim=0 | ");
}

TEST(LadderParityTest, RepairFaultFallsToFullReplan) {
  const Deployed d = diamond();
  ASSERT_TRUE(d.base.ok()) << d.base.failure;
  repair::Damage dmg;
  dmg.failed_links.push_back(d.wan_link());
  PlanningEngine engine({.workers = 1});
  fault::arm("repair.plan", 1, fault::Mode::Fail);
  const PlanResponse r = engine.plan(d.repair(dmg));
  fault::disarm_all();
  EXPECT_EQ(exit_line(r),
            "degraded full_replan repaired=0 rg=964 slrg=3888 replay=8001 sim=0 | "
            "repair could not answer within its budget; full replan on the damaged network "
            "(cost lb 63.850)");
}

TEST(LadderParityTest, UnsurvivableDriftCertificate) {
  const Deployed d = diamond();
  ASSERT_TRUE(d.base.ok()) << d.base.failure;
  repair::Damage dmg;
  for (std::uint32_t l = 0; l < d.problem->net.link_count(); ++l) {
    dmg.failed_links.push_back(LinkId(l));
  }
  PlanRequest req = d.repair(dmg);
  req.preflight = true;
  PlanningEngine engine({.workers = 1});
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(exit_line(r),
            "infeasible primary repaired=0 rg=0 slrg=0 replay=0 sim=0 | "
            "unsurvivable drift: SK001 goal placed(Client, cl): unreachable under "
            "interval-relaxed reachability: no sequence of ground actions composes "
            "producible values that satisfy every precondition on the way to this goal; the "
            "instance is provably infeasible");
  EXPECT_TRUE(r.repair_preflight_rejected);
}

TEST(LadderParityTest, SurvivorPinnedPreflightSkip) {
  // Generated instance 2 under drift 263 (link 6's lbw degrades to 51.255):
  // the bare damaged network passes the pre-flight, the survivor-pinned
  // repair problem does not, so the repair rung is skipped and the full
  // replan runs — here until its first progress tick fires the deadline.
  // The replan relaxes the repair rung, so its stopped search decides the
  // verdict: nothing was proven.
  const testing::GenInstance gen = testing::generate(2);
  const Deployed d(model::load_problem(gen.domain_text(), gen.problem_text()));
  ASSERT_TRUE(d.base.ok()) << d.base.failure;
  const model::CompiledProblem cp = model::compile(d.problem->problem, d.problem->scenario);
  PlanRequest req = d.repair(repair::seeded_drift(cp, d.prior, 263));
  req.preflight = true;
  req.progress = expire_on_first_tick(req.stop);
  PlanningEngine engine({.workers = 1});
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(exit_line(r),
            "deadline_exceeded primary repaired=0 rg=1 slrg=92 replay=0 sim=0 | "
            "stopped before the search completed");
  EXPECT_TRUE(r.preflight_rejected);
  EXPECT_FALSE(r.repair_preflight_rejected);
}


TEST(LadderParityTest, SurvivorPinnedPreflightSkipFullReplan) {
  // Generated instance 165 under drift 11: the survivor-pinned pre-flight
  // skips the repair rung and the full replan on the bare damaged network
  // answers.
  const testing::GenInstance gen = testing::generate(165);
  const Deployed d(model::load_problem(gen.domain_text(), gen.problem_text()));
  ASSERT_TRUE(d.base.ok()) << d.base.failure;
  const model::CompiledProblem cp = model::compile(d.problem->problem, d.problem->scenario);
  PlanRequest req = d.repair(repair::seeded_drift(cp, d.prior, 11));
  req.preflight = true;
  PlanningEngine engine({.workers = 1});
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(exit_line(r),
            "degraded full_replan repaired=0 rg=17 slrg=89 replay=136 sim=1 | "
            "repair could not answer within its budget; full replan on the damaged network "
            "(cost lb 16.080)");
  EXPECT_TRUE(r.preflight_rejected);
  EXPECT_FALSE(r.repair_preflight_rejected);
}

}  // namespace
}  // namespace sekitei::service
