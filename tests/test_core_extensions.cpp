// Tests for the escalation verifier, safety campaigns, and the encoder's
// generalized pair constraints + triangle relaxation.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "core/campaign.hpp"
#include "core/escalation.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {
namespace {

using absint::Interval;

/// net computing out = [n1 - n0, n0 + n1] from two inputs.
nn::Network make_two_output_net() {
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(2, 2);
  d->set_parameters(Tensor(Shape{2, 2}, {-1.0, 1.0, 1.0, 1.0}), Tensor::vector1d({0.0, 0.0}));
  net.add(std::move(d));
  return net;
}

TEST(PairConstraints, GeneralPairsRestrictFeasibleRegion) {
  // out0 = n1 - n0 over [0,1]^2 reaches 0.9 only near the (0,1) corner.
  // A (0,1) pair bound excludes it even when passed via pair_bounds.
  const nn::Network net = make_two_output_net();
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, 0.0, 1.0);
  q.risk.output_at_least(0, 2, 0.9);
  EXPECT_EQ(verify::TailVerifier().verify(q).verdict, verify::Verdict::kUnsafe);

  q.pair_bounds.push_back({0, 1, Interval(-0.2, 0.2)});
  EXPECT_EQ(verify::TailVerifier().verify(q).verdict, verify::Verdict::kSafe);
}

TEST(PairConstraints, InvalidIndicesRejected) {
  const nn::Network net = make_two_output_net();
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, 0.0, 1.0);
  q.risk.output_at_least(0, 2, 0.9);
  q.pair_bounds.push_back({0, 7, Interval(-1.0, 1.0)});
  EXPECT_THROW(verify::encode_tail_query(q, {}), ContractViolation);
}

TEST(TriangleRelaxation, DoesNotChangeVerdictsButMayPrune) {
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    nn::Network net;
    auto d1 = std::make_unique<nn::Dense>(3, 6);
    d1->init_he(rng);
    net.add(std::move(d1));
    net.add(std::make_unique<nn::ReLU>(Shape{6}));
    auto d2 = std::make_unique<nn::Dense>(6, 1);
    d2->init_he(rng);
    net.add(std::move(d2));

    verify::VerificationQuery q;
    q.network = &net;
    q.attach_layer = 0;
    q.input_box = absint::uniform_box(3, -1.0, 1.0);
    q.risk.output_at_least(0, 1, rng.uniform(-0.5, 2.5));

    verify::TailVerifierOptions with_triangle;
    verify::TailVerifierOptions without_triangle;
    without_triangle.encode.triangle_relaxation = false;
    const verify::VerificationResult a = verify::TailVerifier(with_triangle).verify(q);
    const verify::VerificationResult b = verify::TailVerifier(without_triangle).verify(q);
    EXPECT_EQ(a.verdict, b.verdict) << "trial " << trial;
    if (a.verdict == verify::Verdict::kUnsafe) {
      EXPECT_TRUE(a.counterexample_validated);
      EXPECT_TRUE(b.counterexample_validated);
    }
  }
}

TEST(TriangleRelaxation, PrunesForcedProofTrees) {
  // On a SAFE proof (exhaustive search) the tighter relaxation must not
  // explore more nodes than the plain big-M encoding.
  Rng rng(31);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(4, 10);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{10}));
  auto d2 = std::make_unique<nn::Dense>(10, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(4, -1.0, 1.0);
  q.risk.output_at_least(0, 1, 1e6);  // unreachable -> full proof

  verify::TailVerifierOptions with_triangle;
  verify::TailVerifierOptions without_triangle;
  without_triangle.encode.triangle_relaxation = false;
  const auto a = verify::TailVerifier(with_triangle).verify(q);
  const auto b = verify::TailVerifier(without_triangle).verify(q);
  ASSERT_EQ(a.verdict, verify::Verdict::kSafe);
  ASSERT_EQ(b.verdict, verify::Verdict::kSafe);
  EXPECT_LE(a.milp_nodes, b.milp_nodes);
}

/// Perception-style net: dense(2->4) relu | tail dense(4->1) = sum.
nn::Network make_monitored_net(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

TEST(Escalation, SafePropertyStopsAtSomeRungWithMonitor) {
  Rng rng(41);
  const nn::Network net = make_monitored_net(rng);
  std::vector<Tensor> odd;
  for (int i = 0; i < 80; ++i)
    odd.push_back(Tensor::vector1d({rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)}));
  double max_out = -1e100;
  for (const Tensor& x : odd) max_out = std::max(max_out, net.forward(x)[0]);

  verify::RiskSpec risk("beyond-reach");
  risk.output_at_least(0, 1, max_out + 5.0);
  const EscalationOutcome outcome =
      EscalationVerifier().verify(net, 2, nullptr, risk, odd);
  EXPECT_EQ(outcome.verdict, SafetyVerdict::kSafeConditional);
  ASSERT_TRUE(outcome.deployed_monitor.has_value());
  ASSERT_FALSE(outcome.steps.empty());
  EXPECT_EQ(outcome.steps.back().verdict, verify::Verdict::kSafe);
  // The deployed monitor accepts the data S̃ was built from.
  for (const Tensor& x : odd)
    EXPECT_TRUE(outcome.deployed_monitor->contains(net.forward_prefix(x, 2)));
}

TEST(Escalation, TrulyUnsafeRunsAllRungs) {
  Rng rng(43);
  const nn::Network net = make_monitored_net(rng);
  std::vector<Tensor> odd;
  for (int i = 0; i < 60; ++i) odd.push_back(Tensor::randn(Shape{2}, rng, 1.0));
  double max_out = -1e100;
  for (const Tensor& x : odd) max_out = std::max(max_out, net.forward(x)[0]);

  // Risk reached by a training point itself: no S̃ refinement can exclude
  // it, so every rung reports UNSAFE.
  verify::RiskSpec risk("reached-by-data");
  risk.output_at_least(0, 1, max_out - 0.01);
  const EscalationOutcome outcome =
      EscalationVerifier().verify(net, 2, nullptr, risk, odd);
  EXPECT_EQ(outcome.verdict, SafetyVerdict::kUnsafe);
  EXPECT_EQ(outcome.steps.size(), 4u);
  EXPECT_TRUE(outcome.decision.counterexample_validated);
  EXPECT_FALSE(outcome.deployed_monitor.has_value());
  EXPECT_NE(outcome.summary().find("UNSAFE"), std::string::npos);
}

TEST(Escalation, SpuriousBoxCounterexampleEliminatedByLaterRung) {
  // Engineer a case where the box admits a counterexample but pairwise
  // bounds exclude it: tail output = n1 - n0 with strongly correlated
  // training activations.
  nn::Network net;
  auto identity = std::make_unique<nn::Dense>(2, 2);
  identity->set_parameters(Tensor(Shape{2, 2}, {1.0, 0.0, 0.0, 1.0}),
                           Tensor::vector1d({0.0, 0.0}));
  net.add(std::move(identity));
  auto readout = std::make_unique<nn::Dense>(2, 1);
  readout->set_parameters(Tensor(Shape{1, 2}, {-1.0, 1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(readout));

  Rng rng(47);
  std::vector<Tensor> odd;
  for (int i = 0; i < 100; ++i) {
    const double base = rng.uniform(-1.0, 1.0);
    odd.push_back(Tensor::vector1d({base, base + rng.uniform(-0.1, 0.1)}));
  }
  // Output = n1 - n0 stays within ~[-0.1, 0.1] on data, but box corners
  // reach ~2.
  verify::RiskSpec risk("large-difference");
  risk.output_at_least(0, 1, 0.5);
  const EscalationOutcome outcome =
      EscalationVerifier().verify(net, 1, nullptr, risk, odd);
  EXPECT_EQ(outcome.verdict, SafetyVerdict::kSafeConditional);
  ASSERT_GE(outcome.steps.size(), 2u);
  EXPECT_EQ(outcome.steps.front().verdict, verify::Verdict::kUnsafe);  // box rung
  EXPECT_EQ(outcome.steps.back().verdict, verify::Verdict::kSafe);
}

train::Dataset labelled_cloud(Rng& rng, std::size_t count, double threshold) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}),
             Tensor::vector1d({x0 > threshold ? 1.0 : 0.0}));
  }
  return data;
}

TEST(Campaign, AggregatesMultipleQueries) {
  Rng rng(53);
  const nn::Network net = make_monitored_net(rng);

  std::vector<CampaignEntry> entries;
  // Entry 1: characterizable property, unreachable risk -> safe.
  verify::RiskSpec unreachable("far-out");
  unreachable.output_at_least(0, 1, 1e6);
  entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                     labelled_cloud(rng, 100, 0.0), unreachable});
  // Entry 2: same property, reachable risk -> expected unsafe.
  verify::RiskSpec reachable("reachable");
  reachable.output_at_most(0, 1, 1e6);
  entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                     labelled_cloud(rng, 100, 0.0), reachable});
  // Entry 3: random labels -> uncharacterizable.
  train::Dataset noise_train, noise_val;
  Rng label_rng(54);
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::randn(Shape{2}, rng, 1.0);
    const Tensor y = Tensor::vector1d({label_rng.bernoulli(0.5) ? 1.0 : 0.0});
    (i < 140 ? noise_train : noise_val).add(x, y);
  }
  entries.push_back({"coin-flip-property", std::move(noise_train), std::move(noise_val),
                     unreachable});

  WorkflowConfig config;
  config.characterizer.trainer.epochs = 60;
  const CampaignReport report = run_campaign(net, 2, entries, config);
  ASSERT_EQ(report.reports.size(), 3u);
  EXPECT_EQ(report.safe_count + report.unsafe_count + report.unknown_count +
                report.uncharacterizable_count,
            3u);
  EXPECT_GE(report.safe_count, 1u);
  EXPECT_GE(report.unsafe_count, 1u);
  EXPECT_GE(report.uncharacterizable_count, 1u);
  const std::string table = report.format_table();
  EXPECT_NE(table.find("x0-positive"), std::string::npos);
  EXPECT_NE(table.find("tally:"), std::string::npos);
  EXPECT_NE(table.find("not characterizable"), std::string::npos);
}

/// Two trivially SAFE entries (root-infeasible, 1 node each) that donate
/// their unused per-entry budget to a proof that genuinely branches. The
/// budget is derived from an uncapped probe run, so the tests pin the
/// mechanism — starve, pool, regrant, rescue — not magic numbers.
struct RescueBattery {
  nn::Network net;
  std::vector<CampaignEntry> entries;
  WorkflowConfig config;  ///< staged pipeline off, no node budget
  CampaignReport uncapped;
  std::size_t hard_nodes = 0;
  std::size_t easy_nodes_total = 0;
  /// Low enough to starve the hard entry, high enough that the pooled
  /// surplus rescues it: 3B >= hard + easy and B < hard.
  std::size_t budget = 0;
};

const RescueBattery& rescue_battery() {
  static const RescueBattery instance = [] {
    RescueBattery b;
    Rng rng(67);
    auto d1 = std::make_unique<nn::Dense>(2, 8);
    d1->init_he(rng);
    b.net.add(std::move(d1));
    b.net.add(std::make_unique<nn::ReLU>(Shape{8}));
    auto d2 = std::make_unique<nn::Dense>(8, 1);
    d2->init_he(rng);
    b.net.add(std::move(d2));

    const auto make_entries = [&](double hard_threshold) {
      Rng data_rng(68);
      verify::RiskSpec easy_a("far-out-a"), easy_b("far-out-b");
      easy_a.output_at_least(0, 1, 1e7);
      easy_b.output_at_least(0, 1, 2e7);
      verify::RiskSpec hard("close-call");
      hard.output_at_least(0, 1, hard_threshold);
      std::vector<CampaignEntry> entries;
      entries.push_back({"x0-positive", labelled_cloud(data_rng, 200, 0.0),
                         labelled_cloud(data_rng, 100, 0.0), easy_a});
      entries.push_back({"x0-positive", labelled_cloud(data_rng, 200, 0.0),
                         labelled_cloud(data_rng, 100, 0.0), easy_b});
      entries.push_back({"x0-positive", labelled_cloud(data_rng, 200, 0.0),
                         labelled_cloud(data_rng, 100, 0.0), hard});
      return entries;
    };

    double sampled_max = -1e100;
    for (int i = 0; i < 200; ++i) {
      const Tensor x = Tensor::vector1d({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
      sampled_max = std::max(sampled_max, b.net.forward(x)[0]);
    }

    b.config.characterizer.trainer.epochs = 60;
    // Node-budget mechanics need the B&B to actually run out of nodes;
    // the staged pipeline would settle the easy entries without it.
    b.config.assume_guarantee.verifier.falsify.enabled = false;

    // Find a risk threshold whose uncapped search needs real branching
    // (near the reachable boundary either verdict qualifies — a starved
    // UNSAFE hunt is rescued the same way as a starved proof).
    for (const double margin : {0.05, 0.1, 0.25, 0.5, 1.0}) {
      b.entries = make_entries(sampled_max + margin);
      b.uncapped = run_campaign(b.net, 2, b.entries, b.config);
      b.hard_nodes = b.uncapped.reports[2].safety.verification.milp_nodes;
      b.easy_nodes_total = b.uncapped.reports[0].safety.verification.milp_nodes +
                           b.uncapped.reports[1].safety.verification.milp_nodes;
      if (b.hard_nodes >= 3) break;
    }
    if (b.hard_nodes >= 3)
      b.budget = std::max<std::size_t>((b.hard_nodes + b.easy_nodes_total + 2) / 3, 2);
    return b;
  }();
  return instance;
}

TEST(Campaign, BudgetReallocationRescuesStarvedEntries) {
  const RescueBattery& b = rescue_battery();
  if (b.budget == 0) GTEST_SKIP() << "no branching proof found on this testbed";
  EXPECT_EQ(b.uncapped.budget_entries_retried, 0u);  // no budget, no pooling
  ASSERT_LT(b.budget, b.hard_nodes);

  // The capped first pass starves the hard entry: only a node-limit
  // UNKNOWN is ever retried (grant_unused_nodes), and the retry's grant
  // then settles it as the uncapped run did.
  WorkflowConfig capped = b.config;
  capped.entry_node_budget = b.budget;
  const CampaignReport rescued = run_campaign(b.net, 2, b.entries, capped);
  EXPECT_EQ(rescued.budget_nodes_returned,
            2 * b.budget - b.easy_nodes_total);  // both easy entries donate
  EXPECT_EQ(rescued.budget_entries_retried, 1u);
  EXPECT_EQ(rescued.budget_nodes_granted, rescued.budget_nodes_returned);
  EXPECT_EQ(rescued.budget_entries_rescued, 1u);
  EXPECT_EQ(rescued.reports[2].safety.verdict, b.uncapped.reports[2].safety.verdict);
  EXPECT_EQ(rescued.format_table(), b.uncapped.format_table());
  EXPECT_NE(rescued.format_encoding_summary().find("budget:"), std::string::npos);

  // The determinism guarantee extends through re-allocation: tables are
  // bit-identical across campaign thread counts.
  WorkflowConfig threaded = capped;
  threaded.campaign_threads = 2;
  const CampaignReport parallel_rescued = run_campaign(b.net, 2, b.entries, threaded);
  EXPECT_EQ(parallel_rescued.format_table(), rescued.format_table());
  EXPECT_EQ(parallel_rescued.budget_entries_rescued, rescued.budget_entries_rescued);
}

TEST(Campaign, DeadlineInTheBudgetRetryPassIsHonestAndResumes) {
  // A deadline can land after the first pass settled, inside the retry
  // pass. The report must then be interrupted with the cut entry marked
  // deadline-skipped (not a plain resource-limit UNKNOWN), and a resume
  // must reproduce the uninterrupted table. Serial polling is
  // deterministic, so the smallest poll budget that completes the run is
  // found by bisection; one poll less cuts the retry pass, whose polls
  // are the run's last.
  const RescueBattery& b = rescue_battery();
  if (b.budget == 0) GTEST_SKIP() << "no branching proof found on this testbed";
  WorkflowConfig capped = b.config;
  capped.entry_node_budget = b.budget;
  const std::string reference = run_campaign(b.net, 2, b.entries, capped).format_table();
  const std::string path = ::testing::TempDir() + "campaign_retry_deadline";

  const auto run_cut = [&](std::uint64_t polls) {
    std::remove(path.c_str());
    RunControl rc;
    rc.set_poll_budget(polls);
    WorkflowConfig cut = capped;
    cut.run_control = &rc;
    cut.checkpoint_path = path;
    return run_campaign(b.net, 2, b.entries, cut);
  };
  const auto resume = [&] {
    WorkflowConfig cont = capped;
    cont.checkpoint_path = path;
    cont.resume = true;
    return run_campaign(b.net, 2, b.entries, cont);
  };

  // Doubling grid (cuts in the first pass), then bisection for the
  // smallest completing budget.
  std::uint64_t lo = 0, hi = 1;
  for (; run_cut(hi).interrupted; hi *= 2) {
    lo = hi;
    const CampaignReport resumed = resume();
    EXPECT_FALSE(resumed.interrupted) << "budget " << hi;
    EXPECT_EQ(resumed.format_table(), reference) << "budget " << hi;
    ASSERT_LT(hi, std::uint64_t{1} << 30);
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (run_cut(mid).interrupted ? lo : hi) = mid;
  }
  EXPECT_EQ(run_cut(hi).format_table(), reference);

  const CampaignReport cut = run_cut(lo);
  ASSERT_TRUE(cut.interrupted);
  EXPECT_EQ(cut.budget_entries_retried, 0u);  // the cut retry is not counted
  EXPECT_TRUE(cut.reports[2].deadline_skipped);
  EXPECT_FALSE(cut.reports[0].deadline_skipped);
  EXPECT_FALSE(cut.reports[1].deadline_skipped);
  EXPECT_NE(cut.format_table().find("UNKNOWN (deadline-skipped)"), std::string::npos);
  EXPECT_NE(cut.format_table().find("run interrupted by deadline"), std::string::npos);

  const CampaignReport resumed = resume();
  EXPECT_EQ(resumed.resume_entries_restored, b.entries.size());  // first pass had settled
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.budget_entries_retried, 1u);
  EXPECT_EQ(resumed.format_table(), reference);
  std::remove(path.c_str());
}

TEST(Campaign, RejectsEmptyEntryList) {
  Rng rng(59);
  const nn::Network net = make_monitored_net(rng);
  EXPECT_THROW(run_campaign(net, 2, {}, {}), ContractViolation);
}

}  // namespace
}  // namespace dpv::core
