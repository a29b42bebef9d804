// Tests for the budgeted two-pass scheduler campaigns and coverage rounds
// share (src/core/parallel_pass.hpp): the node-budget rule as a pure
// function, BudgetedPass's finished/settled/clean bookkeeping and retry
// tally, and witness recycling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/run_control.hpp"
#include "core/counterexample_pool.hpp"
#include "core/parallel_pass.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {
namespace {

NodeUse decided(std::size_t item, std::size_t nodes) { return {item, false, false, nodes}; }
NodeUse starved(std::size_t item, std::size_t nodes) { return {item, true, true, nodes}; }

TEST(NodeGrantRule, EvenSharesWithTheRemainderToTheEarliest) {
  // Budget 10: donors leave 7 + 1 = 8 unused nodes; three starved
  // queries split them 3 / 3 / 2 in `uses` order.
  const NodeGrants g = grant_unused_nodes(
      {starved(4, 10), decided(0, 3), starved(1, 10), decided(2, 9), starved(7, 10)}, 10);
  EXPECT_EQ(g.returned, 8u);
  EXPECT_EQ(g.granted, 8u);
  ASSERT_EQ(g.retries.size(), 3u);
  EXPECT_EQ(g.retries[0].item, 4u);
  EXPECT_EQ(g.retries[0].node_budget, 13u);
  EXPECT_EQ(g.retries[1].item, 1u);
  EXPECT_EQ(g.retries[1].node_budget, 13u);
  EXPECT_EQ(g.retries[2].item, 7u);
  EXPECT_EQ(g.retries[2].node_budget, 12u);
}

TEST(NodeGrantRule, ZeroGrantsAreSkipped) {
  // Two unused nodes over three starved queries: the first two get one
  // node each, the third gets nothing and is not retried.
  const NodeGrants g =
      grant_unused_nodes({decided(0, 8), starved(1, 10), starved(2, 10), starved(3, 10)}, 10);
  EXPECT_EQ(g.returned, 2u);
  EXPECT_EQ(g.granted, 2u);
  ASSERT_EQ(g.retries.size(), 2u);
  EXPECT_EQ(g.retries[0].item, 1u);
  EXPECT_EQ(g.retries[1].item, 2u);
  EXPECT_EQ(g.retries[1].node_budget, 11u);
}

TEST(NodeGrantRule, OtherUnknownsNeitherDonateNorDraw) {
  // An UNKNOWN not caused by the node limit (an LP iteration limit, a
  // deadline) keeps its leftover out of the pool and draws nothing.
  const NodeUse lp_limited{1, true, false, 2};
  const NodeGrants g = grant_unused_nodes({decided(0, 6), lp_limited, starved(2, 10)}, 10);
  EXPECT_EQ(g.returned, 4u);
  ASSERT_EQ(g.retries.size(), 1u);
  EXPECT_EQ(g.retries[0].item, 2u);
  EXPECT_EQ(g.retries[0].node_budget, 14u);

  const NodeGrants alone = grant_unused_nodes({lp_limited}, 10);
  EXPECT_EQ(alone.returned, 0u);
  EXPECT_TRUE(alone.retries.empty());
}

TEST(NodeGrantRule, EmptyPoolMeansNoRetry) {
  // Every decided query spent its whole budget: nothing to hand out.
  const NodeGrants spent = grant_unused_nodes({decided(0, 10), starved(1, 10)}, 10);
  EXPECT_EQ(spent.returned, 0u);
  EXPECT_EQ(spent.granted, 0u);
  EXPECT_TRUE(spent.retries.empty());
  // Nobody starved: the surplus is reported but nothing is retried.
  const NodeGrants idle = grant_unused_nodes({decided(0, 1), decided(1, 2)}, 10);
  EXPECT_EQ(idle.returned, 17u);
  EXPECT_EQ(idle.granted, 0u);
  EXPECT_TRUE(idle.retries.empty());
}

/// A pass over fake queries: item i decides once its node budget reaches
/// needs[i] (0 = the configured budget suffices), else ends a node-limit
/// UNKNOWN.
struct FakeQueries {
  std::vector<std::size_t> needs;
  std::vector<verify::VerificationResult> slots;
  std::vector<std::size_t> budgets_seen;

  explicit FakeQueries(std::vector<std::size_t> n)
      : needs(std::move(n)), slots(needs.size()), budgets_seen(needs.size(), 0) {}

  BudgetedPass::Query query() {
    return [this](const BudgetedJob& job) -> const verify::VerificationResult& {
      verify::VerificationResult& v = slots[job.item];
      budgets_seen[job.item] = job.node_budget;
      v = verify::VerificationResult{};
      const bool decides = needs[job.item] == 0 || job.node_budget >= needs[job.item];
      v.verdict = decides ? verify::Verdict::kSafe : verify::Verdict::kUnknown;
      v.hit_node_limit = !decides;
      v.milp_nodes = decides ? 1 : 10;
      return v;
    };
  }
  std::vector<NodeUse> uses() const {
    std::vector<NodeUse> out;
    for (std::size_t i = 0; i < slots.size(); ++i)
      out.push_back({i, slots[i].verdict == verify::Verdict::kUnknown, slots[i].hit_node_limit,
                     slots[i].milp_nodes});
    return out;
  }
};

TEST(BudgetedPass, FirstPassThenRetryTallies) {
  // Items 1 and 3 starve at budget 10; the three donors free 27 nodes,
  // so item 1 (needs 20) is rescued and item 3 (needs 50) is not.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    FakeQueries fake({0, 20, 0, 50, 0});
    BudgetedPass pass(threads, nullptr, [](const BudgetedJob& j) {
      return "item " + std::to_string(j.item);
    }, fake.query());
    pass.run({{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}});
    EXPECT_TRUE(pass.clean());
    for (std::size_t j = 0; j < 5; ++j) EXPECT_TRUE(pass.settled(j)) << j;

    const NodeBudgetTally tally = pass.retry(fake.uses(), 10);
    EXPECT_EQ(tally.returned, 27u);
    EXPECT_EQ(tally.granted, 27u);
    EXPECT_EQ(tally.retried, 2u);
    EXPECT_EQ(tally.rescued, 1u);
    EXPECT_EQ(fake.budgets_seen[1], 24u);  // 10 + 14 (remainder to the earliest)
    EXPECT_EQ(fake.budgets_seen[3], 23u);
    EXPECT_EQ(fake.slots[1].verdict, verify::Verdict::kSafe);
    EXPECT_EQ(fake.slots[3].verdict, verify::Verdict::kUnknown);
    ASSERT_EQ(pass.jobs().size(), 2u);
    EXPECT_EQ(pass.jobs()[0].item, 1u);
  }
}

TEST(BudgetedPass, DeadlineCutPassIsNotCleanAndItsRetryIsNotCounted) {
  // An expired run control stops claiming: nothing finishes, nothing
  // settles, and a cut retry pass reports its grants but no retries.
  FakeQueries fake({0, 20, 0});
  RunControl rc;
  BudgetedPass pass(1, &rc, [](const BudgetedJob&) { return std::string("job"); },
                    fake.query());
  pass.run({{0, 0}, {1, 0}, {2, 0}});
  ASSERT_TRUE(pass.clean());
  rc.cancel();
  const NodeBudgetTally tally = pass.retry(fake.uses(), 10);
  EXPECT_EQ(tally.returned, 18u);
  EXPECT_EQ(tally.granted, 18u);
  EXPECT_EQ(tally.retried, 0u);
  EXPECT_EQ(tally.rescued, 0u);
  ASSERT_EQ(pass.jobs().size(), 1u);
  EXPECT_FALSE(pass.finished(0));
  EXPECT_FALSE(pass.settled(0));
  EXPECT_FALSE(pass.clean());
}

TEST(BudgetedPass, DeadlineInsideAJobFinishesButDoesNotSettle) {
  BudgetedPass pass(1, nullptr, [](const BudgetedJob&) { return std::string("job"); },
                    [](const BudgetedJob&) -> const verify::VerificationResult& {
                      static verify::VerificationResult v = [] {
                        verify::VerificationResult r;
                        r.hit_deadline = true;
                        return r;
                      }();
                      return v;
                    });
  pass.run({{0, 0}});
  EXPECT_TRUE(pass.finished(0));
  EXPECT_FALSE(pass.settled(0));
  EXPECT_FALSE(pass.clean());
}

TEST(WitnessRecycling, PoolsValidatedWitnessesAndFrontierPoints) {
  CounterexamplePool pool;
  verify::VerificationResult unsafe;
  unsafe.verdict = verify::Verdict::kUnsafe;
  unsafe.counterexample_validated = true;
  unsafe.counterexample_activation = Tensor::vector1d({1.0});
  unsafe.have_frontier_activation = true;
  unsafe.frontier_activation = Tensor::vector1d({2.0});
  EXPECT_EQ(contribute_witnesses(pool, "risk", 3, unsafe), 2u);

  verify::VerificationResult unvalidated = unsafe;  // never pooled as a witness
  unvalidated.counterexample_validated = false;
  unvalidated.have_frontier_activation = false;
  EXPECT_EQ(contribute_witnesses(pool, "risk", 0, unvalidated), 0u);

  verify::VerificationResult safe;
  safe.verdict = verify::Verdict::kSafe;
  EXPECT_EQ(contribute_witnesses(pool, "risk", 1, safe), 0u);

  const std::vector<Tensor> points = pool.snapshot("risk");
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0][0], 1.0);
  EXPECT_EQ(points[1][0], 2.0);
}

}  // namespace
}  // namespace dpv::core
