// Work gate: solves every Table 2 row (Tiny to Large, scenarios A to E) once
// and compares its cost and four deterministic work counters —
// rg_expansions, slrg_sets, replay_calls, sim_rejections — with the
// `table2` section of perfbench/data/expected.json (read, never written).
//
// The SLRG oracle's memo counters (slrg_memo_hits, slrg_memo_misses) are
// pinned below as well: an extra oracle query answered from the memo
// changes no counter in expected.json, but it does change these.
//
// The counters do not depend on the machine, so this catches a change in
// search work that a timing gate would miss or blame on noise.  A change
// meant to alter the work re-records expected.json
// (`perfbench/run.py --record-expected`) and the memo table below in the
// same diff.  A pure
// constant-factor slowdown leaves the counters alone; interleaved
// benchmark pairs are the check for that.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "sim/executor.hpp"
#include "support/json_reader.hpp"

namespace sekitei {
namespace {

struct Memo {
  std::uint64_t hits;
  std::uint64_t misses;
};
/// slrg_memo_hits / slrg_memo_misses per row (bench_table2 prints them).
const std::map<std::string, Memo> kMemo = {
    {"Tiny/B", {271, 21}},        {"Tiny/C", {261, 9}},        {"Tiny/D", {261, 9}},
    {"Tiny/E", {396, 9}},         {"Small/A", {7, 1}},         {"Small/B", {4512, 65}},
    {"Small/C", {16618, 24}},     {"Small/D", {16618, 24}},    {"Small/E", {477416, 22}},
    {"Large/A", {980, 9}},        {"Large/B", {23766, 193}},   {"Large/C", {58211, 25}},
    {"Large/D", {58211, 25}},     {"Large/E", {2105444, 23}},
};

json::Value load_expected() {
  std::ifstream in(SEKITEI_TEST_EXPECTED_JSON);
  std::stringstream text;
  text << in.rdbuf();
  json::Value v;
  std::string error;
  if (!json::parse(text.str(), v, &error)) {
    ADD_FAILURE() << SEKITEI_TEST_EXPECTED_JSON << ": " << error;
  }
  return v;
}

TEST(WorkGate, Table2RowsMatchRecordedWork) {
  const json::Value expected = load_expected();
  const json::Value* table2 = expected.find("table2");
  ASSERT_NE(table2, nullptr) << "expected.json has no table2 section";

  const std::array<std::unique_ptr<domains::media::Instance>, 3> nets = {
      domains::media::tiny(), domains::media::small(), domains::media::large()};
  const std::array<const char*, 3> names = {"Tiny", "Small", "Large"};
  int rows = 0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const char sc : std::string("ABCDE")) {
      const std::string row = std::string(names[n]) + "/" + sc;
      const json::Value* want = table2->find(row);
      if (want == nullptr) continue;  // Tiny/A is not recorded
      SCOPED_TRACE(row);
      ++rows;

      const model::CompiledProblem cp =
          model::compile(nets[n]->problem, domains::media::scenario(sc));
      core::PlannerOptions opt;
      if (sc == 'A') opt.mode = core::PlannerOptions::Mode::Greedy;
      core::Sekitei planner(cp, opt);
      sim::Executor exec(cp);
      const core::PlanResult r =
          planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });

      const Memo& memo = kMemo.at(row);
      EXPECT_EQ(r.stats.slrg_memo_hits, memo.hits);
      EXPECT_EQ(r.stats.slrg_memo_misses, memo.misses);

      const json::Value* cost = want->find("cost");
      ASSERT_NE(cost, nullptr);
      if (cost->is_null()) {
        EXPECT_FALSE(r.ok()) << "found a plan where none exists";
      } else {
        ASSERT_TRUE(r.ok()) << r.failure;
        EXPECT_NEAR(r.plan->cost_lb, cost->number, 5e-3);
      }

      const json::Value* work = want->find("work");
      if (work == nullptr || work->is_null()) continue;  // cost-only rows
      ASSERT_TRUE(work->is_array());
      ASSERT_EQ(work->arr->size(), 4u);
      const std::array<std::uint64_t, 4> got = {r.stats.rg_expansions, r.stats.slrg_sets,
                                                r.stats.replay_calls, r.stats.sim_rejections};
      const std::array<const char*, 4> counter = {"rg_expansions", "slrg_sets", "replay_calls",
                                                  "sim_rejections"};
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(static_cast<double>(got[i]), (*work->arr)[i].number) << counter[i];
      }
    }
  }
  EXPECT_EQ(rows, 14);
}

}  // namespace
}  // namespace sekitei
