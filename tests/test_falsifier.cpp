// Staged falsify-then-prove pipeline tests: witness soundness (an
// attack-reported UNSAFE must re-validate on a real forward pass, and a
// spurious seed point must never flip a verdict), the zonotope SAFE
// stage, deterministic seeding, counterexample recycling, and the
// campaign-level verdict-compatibility grid (falsify on/off x thread
// counts).
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/counterexample_pool.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/falsifier.hpp"
#include "verify/verifier.hpp"

namespace dpv::verify {
namespace {

using absint::Interval;

/// network computing out = [n1 - n0] from two inputs (identity tail).
nn::Network make_difference_net() {
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(2, 1);
  d->set_parameters(Tensor(Shape{1, 2}, {-1.0, 1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(d));
  return net;
}

/// dense(2->6) relu dense(6->1) with deterministic weights.
nn::Network make_relu_net(std::uint64_t seed) {
  Rng rng(seed);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 6);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto d2 = std::make_unique<nn::Dense>(6, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

VerificationQuery make_query(const nn::Network& net, absint::Box box, RiskSpec risk) {
  VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = std::move(box);
  q.risk = std::move(risk);
  return q;
}

FalsifyOptions enabled_options() {
  FalsifyOptions options;
  options.enabled = true;
  return options;
}

TEST(ValidateWitness, ChecksEveryConstraintOnARealForwardPass) {
  const nn::Network net = make_difference_net();
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.5);
  VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);
  q.diff_bounds = {Interval(-2.0, 0.9)};

  // (0, 0.8): in box, diff 0.8 within bounds, out = 0.8 >= 0.5.
  EXPECT_TRUE(validate_witness(q, Tensor::vector1d({0.0, 0.8}), 1e-9));
  // Out of box.
  EXPECT_FALSE(validate_witness(q, Tensor::vector1d({-0.5, 0.8}), 1e-9));
  // Diff bound violated (diff = 0.95 > 0.9).
  EXPECT_FALSE(validate_witness(q, Tensor::vector1d({0.0, 0.95}), 1e-9));
  // Risk margin violated (out = 0.2 < 0.5).
  EXPECT_FALSE(validate_witness(q, Tensor::vector1d({0.3, 0.5}), 1e-9));
  // Wrong dimension.
  EXPECT_FALSE(validate_witness(q, Tensor::vector1d({0.5}), 1e-9));

  // Pair constraints are enforced too.
  VerificationQuery qp = make_query(net, absint::uniform_box(2, 0.0, 1.0), q.risk);
  qp.pair_bounds.push_back({0, 1, Interval(-0.1, 0.1)});
  EXPECT_FALSE(validate_witness(qp, Tensor::vector1d({0.0, 0.8}), 1e-9));
}

TEST(Falsifier, AttackSettlesReachableRiskWithValidatedWitness) {
  const nn::Network net = make_difference_net();
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.9);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);

  const FalsifyReport report = falsify_query(q, enabled_options());
  ASSERT_TRUE(report.falsified);
  // Soundness: the witness re-validates on a real forward pass, with no
  // tolerance borrowed from the attack.
  EXPECT_TRUE(validate_witness(q, report.counterexample_activation, 0.0));
  const Tensor y = net.forward(report.counterexample_activation);
  EXPECT_GE(y[0], 0.9);
}

TEST(Falsifier, AttackRespectsRelationalConstraints) {
  // diff bound [-0.5, 0.5] still admits out = n1 - n0 >= 0.3; the
  // witness must satisfy both the risk and the relational hinge.
  const nn::Network net = make_difference_net();
  RiskSpec risk("within-diff");
  risk.output_at_least(0, 1, 0.3);
  VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);
  q.diff_bounds = {Interval(-0.5, 0.5)};

  const FalsifyReport report = falsify_query(q, enabled_options());
  ASSERT_TRUE(report.falsified);
  const double diff =
      report.counterexample_activation[1] - report.counterexample_activation[0];
  EXPECT_GE(diff, 0.3);
  EXPECT_LE(diff, 0.5 + 1e-12);
}

TEST(Falsifier, SpuriousSeedPointsNeverFlipAVerdict) {
  // Risk out >= 1.5 is unreachable over [0,1]^2 (out ranges [-1,1]).
  // Poison the seed pool with stale points — out-of-box, wrong-sized,
  // and in-box near-misses. None may produce UNSAFE.
  const nn::Network net = make_difference_net();
  RiskSpec risk("impossible");
  risk.output_at_least(0, 1, 1.5);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);

  FalsifyOptions options = enabled_options();
  options.seed_points = {Tensor::vector1d({-7.0, 9.0}), Tensor::vector1d({0.5}),
                         Tensor::vector1d({0.0, 1.0}), Tensor::vector1d({0.2, 0.9})};
  const FalsifyReport report = falsify_query(q, options);
  EXPECT_FALSE(report.falsified);

  // Through the verifier the query still proves SAFE.
  TailVerifierOptions vo;
  vo.falsify = options;
  const VerificationResult r = TailVerifier(vo).verify(q);
  EXPECT_EQ(r.verdict, Verdict::kSafe);
}

TEST(Falsifier, RecycledWitnessSettlesOnTheFirstSeed) {
  const nn::Network net = make_difference_net();
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.9);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);

  const FalsifyReport first = falsify_query(q, enabled_options());
  ASSERT_TRUE(first.falsified);

  FalsifyOptions recycled = enabled_options();
  recycled.seed_points = {first.counterexample_activation};
  const FalsifyReport second = falsify_query(q, recycled);
  ASSERT_TRUE(second.falsified);
  EXPECT_EQ(second.seeds_tried, 1u);
  EXPECT_EQ(second.starts, 1u);  // the seed validated immediately
}

TEST(Falsifier, SeedingIsDeterministic) {
  const nn::Network net = make_relu_net(11);
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.01);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, -1.0, 1.0), risk);

  FalsifyOptions options = enabled_options();
  options.seed = 1234;
  const FalsifyReport a = falsify_query(q, options);
  const FalsifyReport b = falsify_query(q, options);
  EXPECT_EQ(a.falsified, b.falsified);
  EXPECT_EQ(a.starts, b.starts);
  if (a.falsified) {
    ASSERT_EQ(a.counterexample_activation.numel(), b.counterexample_activation.numel());
    for (std::size_t i = 0; i < a.counterexample_activation.numel(); ++i)
      EXPECT_EQ(a.counterexample_activation[i], b.counterexample_activation[i]);
  }
}

TEST(Falsifier, ConcurrentAttacksOnASharedNetworkMatchSerial) {
  const nn::Network net = make_relu_net(13);
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.01);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, -1.0, 1.0), risk);
  const FalsifyReport serial = falsify_query(q, enabled_options());

  std::vector<FalsifyReport> reports(4);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < reports.size(); ++t)
    pool.emplace_back([&, t] { reports[t] = falsify_query(q, enabled_options()); });
  for (std::thread& t : pool) t.join();
  for (const FalsifyReport& r : reports) {
    EXPECT_EQ(r.falsified, serial.falsified);
    EXPECT_EQ(r.starts, serial.starts);
    if (serial.falsified)
      for (std::size_t i = 0; i < serial.counterexample_activation.numel(); ++i)
        EXPECT_EQ(r.counterexample_activation[i], serial.counterexample_activation[i]);
  }
}

TEST(BoundProof, ZonotopeStageProvesUnreachableRiskWithoutMilp) {
  const nn::Network net = make_relu_net(17);
  RiskSpec risk("impossible");
  risk.output_at_least(0, 1, 1e6);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, -1.0, 1.0), risk);

  const BoundProofReport proof = prove_by_bounds(q, enabled_options());
  EXPECT_TRUE(proof.proved_safe);
  EXPECT_TRUE(proof.used_zonotope);

  TailVerifierOptions vo;
  vo.falsify = enabled_options();
  const VerificationResult r = TailVerifier(vo).verify(q);
  EXPECT_EQ(r.verdict, Verdict::kSafe);
  EXPECT_EQ(r.decided_by, DecisionStage::kZonotope);
  EXPECT_EQ(r.milp_nodes, 0u);  // never encoded, never searched
  EXPECT_GT(r.zonotope_seconds, 0.0);
  EXPECT_NE(r.summary().find("[zonotope]"), std::string::npos);
}

TEST(BoundProof, NeverProvesSafeOnAReachableRisk) {
  // Soundness in the other direction: a risk reached inside the box must
  // survive the bound stage (over-approximation can only widen ranges).
  const nn::Network net = make_relu_net(19);
  const absint::Box box = absint::uniform_box(2, -1.0, 1.0);
  double hi = -1e100;
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    const Tensor x =
        Tensor::vector1d({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
    hi = std::max(hi, net.forward(x)[0]);
  }
  RiskSpec risk("reached");
  risk.output_at_least(0, 1, hi - 0.01);
  const BoundProofReport proof = prove_by_bounds(make_query(net, box, risk), enabled_options());
  EXPECT_FALSE(proof.proved_safe);
}

TEST(Verifier, AttackDecisionCarriesValidatedCounterexample) {
  const nn::Network net = make_difference_net();
  RiskSpec risk("reachable");
  risk.output_at_least(0, 1, 0.9);
  const VerificationQuery q = make_query(net, absint::uniform_box(2, 0.0, 1.0), risk);

  TailVerifierOptions vo;
  vo.falsify = enabled_options();
  const VerificationResult r = TailVerifier(vo).verify(q);
  ASSERT_EQ(r.verdict, Verdict::kUnsafe);
  EXPECT_EQ(r.decided_by, DecisionStage::kAttack);
  EXPECT_TRUE(r.counterexample_validated);
  EXPECT_GE(net.forward(r.counterexample_activation)[0], 0.9);
  EXPECT_EQ(r.milp_nodes, 0u);
  EXPECT_GT(r.attack_starts, 0u);
  EXPECT_NE(r.summary().find("[attack]"), std::string::npos);
}

}  // namespace
}  // namespace dpv::verify

namespace dpv::core {
namespace {

train::Dataset labelled_cloud(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

nn::Network make_campaign_net(std::uint64_t seed) {
  Rng rng(seed);
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

std::vector<CampaignEntry> mixed_entries(Rng& rng) {
  // SAFE (unreachable), UNSAFE (trivially reachable), and a boundary
  // risk the MILP has to decide.
  std::vector<CampaignEntry> entries;
  verify::RiskSpec unreachable("far-out");
  unreachable.output_at_least(0, 1, 1e6);
  verify::RiskSpec reachable("everywhere");
  reachable.output_at_most(0, 1, 1e6);
  verify::RiskSpec boundary("boundary");
  boundary.output_at_least(0, 1, 0.05);
  for (const verify::RiskSpec* risk : {&unreachable, &reachable, &boundary})
    entries.push_back(
        {"x0-positive", labelled_cloud(rng, 120), labelled_cloud(rng, 60), *risk});
  return entries;
}

TEST(CounterexamplePool, SnapshotsAreOrderedAndKeyed) {
  CounterexamplePool pool;
  pool.contribute("risk-a", 2, Tensor::vector1d({2.0}));
  pool.contribute("risk-a", 0, Tensor::vector1d({0.0}));
  pool.contribute("risk-a", 0, Tensor::vector1d({0.5}));
  pool.contribute("risk-b", 1, Tensor::vector1d({9.0}));
  EXPECT_EQ(pool.size(), 4u);

  const std::vector<Tensor> a = pool.snapshot("risk-a");
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0][0], 0.0);  // order 0 first, contribution sequence kept
  EXPECT_EQ(a[1][0], 0.5);
  EXPECT_EQ(a[2][0], 2.0);
  EXPECT_EQ(pool.snapshot("risk-b").size(), 1u);
  EXPECT_TRUE(pool.snapshot("unknown-key").empty());
}

TEST(StagedCampaign, VerdictCompatibilityAcrossFalsifyAndThreads) {
  Rng rng(71);
  const nn::Network net = make_campaign_net(73);
  const std::vector<CampaignEntry> entries = mixed_entries(rng);

  WorkflowConfig off;
  off.characterizer.trainer.epochs = 40;
  off.assume_guarantee.verifier.falsify.enabled = false;
  WorkflowConfig on = off;
  on.assume_guarantee.verifier.falsify.enabled = true;

  const CampaignReport report_off = run_campaign(net, 2, entries, off);
  const CampaignReport report_on = run_campaign(net, 2, entries, on);

  // Decided verdicts agree entry by entry; only UNKNOWN may improve.
  ASSERT_EQ(report_off.reports.size(), report_on.reports.size());
  for (std::size_t i = 0; i < report_off.reports.size(); ++i) {
    const SafetyVerdict a = report_off.reports[i].safety.verdict;
    const SafetyVerdict b = report_on.reports[i].safety.verdict;
    if (a != SafetyVerdict::kUnknown && b != SafetyVerdict::kUnknown)
      EXPECT_EQ(a, b) << "entry " << i;
  }
  EXPECT_GE(report_on.safe_count + report_on.unsafe_count,
            report_off.safe_count + report_off.unsafe_count);

  // Bit-identical tables across thread counts, in both modes.
  for (WorkflowConfig* config : {&off, &on}) {
    WorkflowConfig threaded = *config;
    threaded.campaign_threads = 4;
    const CampaignReport serial = run_campaign(net, 2, entries, *config);
    const CampaignReport parallel = run_campaign(net, 2, entries, threaded);
    EXPECT_EQ(serial.format_table(), parallel.format_table());
  }
}

TEST(StagedCampaign, FunnelCountersPartitionTheUsableEntries) {
  Rng rng(79);
  const nn::Network net = make_campaign_net(83);
  const std::vector<CampaignEntry> entries = mixed_entries(rng);

  WorkflowConfig config;
  config.characterizer.trainer.epochs = 40;
  const CampaignReport report = run_campaign(net, 2, entries, config);

  const std::size_t funnel_total = report.funnel_attack_falsified +
                                   report.funnel_zonotope_proved +
                                   report.funnel_milp_proved +
                                   report.funnel_milp_falsified + report.funnel_unknown;
  EXPECT_EQ(funnel_total,
            report.safe_count + report.unsafe_count + report.unknown_count);
  EXPECT_EQ(report.funnel_attack_falsified + report.funnel_milp_falsified,
            report.unsafe_count);
  EXPECT_EQ(report.funnel_zonotope_proved + report.funnel_milp_proved,
            report.safe_count);
  // The mixed battery exercises both cheap stages.
  EXPECT_GT(report.funnel_attack_falsified, 0u);
  EXPECT_GT(report.funnel_zonotope_proved, 0u);
  EXPECT_NE(report.format_encoding_summary().find("funnel:"), std::string::npos);

  // Each entry's deciding stage agrees with the funnel.
  std::size_t by_attack = 0, by_zonotope = 0;
  for (const WorkflowReport& wr : report.reports) {
    if (!wr.characterizer_usable || wr.safety.verdict == SafetyVerdict::kUnknown) continue;
    const verify::DecisionStage stage = wr.safety.verification.decided_by;
    by_attack += stage == verify::DecisionStage::kAttack;
    by_zonotope += stage == verify::DecisionStage::kZonotope;
  }
  EXPECT_EQ(by_attack, report.funnel_attack_falsified);
  EXPECT_EQ(by_zonotope, report.funnel_zonotope_proved);
}

TEST(StagedCampaign, PoolRecyclesWitnessesAcrossCampaigns) {
  Rng rng(89);
  const nn::Network net = make_campaign_net(97);
  const std::vector<CampaignEntry> entries = mixed_entries(rng);

  WorkflowConfig config;
  config.characterizer.trainer.epochs = 40;
  config.counterexample_pool = std::make_shared<CounterexamplePool>();
  const CampaignReport first = run_campaign(net, 2, entries, config);
  EXPECT_GT(first.pool_points_contributed, 0u);
  EXPECT_GT(config.counterexample_pool->size(), 0u);

  // A second battery over the same risks starts from the pooled
  // witnesses; the recycled-seed counter proves they were consumed.
  const CampaignReport second = run_campaign(net, 2, entries, config);
  EXPECT_GT(second.attack_seeds_tried, 0u);
  EXPECT_EQ(second.unsafe_count, first.unsafe_count);
}

TEST(StagedCampaign, ConcretizationProducesAnInputSpaceWitness) {
  Rng rng(101);
  const nn::Network net = make_campaign_net(103);
  std::vector<CampaignEntry> entries;
  verify::RiskSpec reachable("everywhere");
  reachable.output_at_most(0, 1, 1e6);
  entries.push_back(
      {"x0-positive", labelled_cloud(rng, 120), labelled_cloud(rng, 60), reachable});

  WorkflowConfig config;
  config.characterizer.trainer.epochs = 40;
  config.concretize_witnesses = true;
  const CampaignReport report = run_campaign(net, 2, entries, config);
  ASSERT_EQ(report.reports.size(), 1u);
  const WorkflowReport& wr = report.reports[0];
  ASSERT_EQ(wr.safety.verdict, SafetyVerdict::kUnsafe);
  ASSERT_TRUE(wr.have_input_witness);
  EXPECT_EQ(wr.input_witness.numel(), net.input_shape().numel());
  // The concretized input's layer-l features approach the witness.
  const Tensor feats = net.forward_prefix(wr.input_witness, 2);
  double dist = 0.0;
  for (std::size_t i = 0; i < feats.numel(); ++i)
    dist = std::max(dist,
                    std::abs(feats[i] - wr.safety.verification.counterexample_activation[i]));
  EXPECT_NEAR(dist, wr.input_witness_distance, 1e-9);
}

}  // namespace
}  // namespace dpv::core
