// Shared per-property preparation in run_campaign: each distinct property
// dataset is forwarded to layer l, characterized and monitored once, and
// the result is paired with every risk over that data. The contract under
// test: a campaign's tables, confusions, Table I counts and verdicts equal
// a standalone SafetyWorkflow::run per entry — at any thread count, under
// either bounds source — while the preparation counters show exactly one
// fit per distinct (images, labels) pair and one forward pass per distinct
// image set. Sharing is decided by content, never by property name.
// Faults, deadlines and resumes must keep that contract: a preparation
// that dies fails its waiters without hanging, and salvage + resume
// reproduces the reference table.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "core/campaign.hpp"
#include "core/parallel_pass.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"

namespace dpv::core {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

/// Perception-style net: dense(2->width) relu | tail dense(width->1).
nn::Network make_monitored_net(Rng& rng, std::size_t width) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, width);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{width}));
  auto d2 = std::make_unique<nn::Dense>(width, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

/// Images in [0,1]^2 (inside the static-analysis pixel box), labelled
/// x0 > threshold.
train::Dataset cloud(Rng& rng, std::size_t count, double threshold) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(0.0, 1.0);
    const double x1 = rng.uniform(0.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > threshold ? 1.0 : 0.0}));
  }
  return data;
}

/// The same images, labelled x0 > threshold.
train::Dataset relabel(const train::Dataset& data, double threshold) {
  train::Dataset out;
  for (const train::Sample& s : data.samples())
    out.add(s.input, Tensor::vector1d({s.input[0] > threshold ? 1.0 : 0.0}));
  return out;
}

WorkflowConfig base_config() {
  WorkflowConfig config;
  config.characterizer.trainer.epochs = 60;
  return config;
}

struct SharingBattery {
  nn::Network net;
  std::vector<CampaignEntry> entries;
  std::size_t characterizer_groups = 0;  ///< distinct (images, labels)
  std::size_t feature_images = 0;        ///< images over distinct image sets
};

/// Three risks over one property dataset; the same name over the same
/// images with other labels; the first dataset again under another name;
/// and a second image set.
const SharingBattery& sharing_battery() {
  static const SharingBattery instance = [] {
    SharingBattery b;
    Rng rng(71);
    b.net = make_monitored_net(rng, 4);
    verify::RiskSpec far_out("far-out");
    far_out.output_at_least(0, 1, 1e6);
    verify::RiskSpec reachable("reachable");
    reachable.output_at_most(0, 1, 1e6);
    verify::RiskSpec far_out_b("far-out-b");
    far_out_b.output_at_least(0, 1, 2e6);

    const train::Dataset a_train = cloud(rng, 200, 0.5);
    const train::Dataset a_val = cloud(rng, 100, 0.5);
    const train::Dataset a_train_shifted = relabel(a_train, 0.8);
    const train::Dataset a_val_shifted = relabel(a_val, 0.8);
    const train::Dataset b_train = cloud(rng, 150, 0.5);
    const train::Dataset b_val = cloud(rng, 80, 0.5);

    b.entries.push_back({"x0-high", a_train, a_val, far_out});
    b.entries.push_back({"x0-high", a_train, a_val, reachable});
    b.entries.push_back({"x0-high", a_train, a_val, far_out_b});
    b.entries.push_back({"x0-high", a_train_shifted, a_val_shifted, far_out});
    b.entries.push_back({"x0-high-other-images", b_train, b_val, reachable});
    b.entries.push_back({"alias-of-x0-high", a_train, a_val, reachable});
    b.entries.push_back({"x0-high", a_train_shifted, a_val_shifted, reachable});
    b.characterizer_groups = 3;
    b.feature_images = (200 + 100) + (150 + 80);
    return b;
  }();
  return instance;
}

void expect_confusion_eq(const train::ConfusionCounts& a, const train::ConfusionCounts& b,
                         const std::string& what) {
  EXPECT_EQ(a.tp, b.tp) << what;
  EXPECT_EQ(a.fp, b.fp) << what;
  EXPECT_EQ(a.fn, b.fn) << what;
  EXPECT_EQ(a.tn, b.tn) << what;
}

/// Runs every entry alone through SafetyWorkflow::run with the per-entry
/// settings run_campaign applies (attack seed derived from the entry
/// index) and checks the campaign's report against it entry by entry.
void expect_matches_standalone(const SharingBattery& b, const WorkflowConfig& config,
                               const CampaignReport& shared) {
  ASSERT_EQ(shared.reports.size(), b.entries.size());
  const SafetyWorkflow workflow(b.net, 2);
  CampaignReport standalone;  // the campaign's tally line, standalone rows
  standalone.safe_count = shared.safe_count;
  standalone.unsafe_count = shared.unsafe_count;
  standalone.unknown_count = shared.unknown_count;
  standalone.uncharacterizable_count = shared.uncharacterizable_count;
  for (std::size_t i = 0; i < b.entries.size(); ++i) {
    const CampaignEntry& e = b.entries[i];
    WorkflowConfig entry_config = config;
    entry_config.assume_guarantee.verifier.falsify.seed += 0x9e3779b97f4a7c15ULL * (i + 1);
    WorkflowReport alone =
        workflow.run(e.property_name, e.property_train, e.property_val, e.risk, entry_config);
    const WorkflowReport& r = shared.reports[i];
    const std::string what = "entry " + std::to_string(i);
    EXPECT_EQ(r.property_name, alone.property_name) << what;
    EXPECT_EQ(r.risk_name, alone.risk_name) << what;
    expect_confusion_eq(r.characterizer.train_confusion, alone.characterizer.train_confusion,
                        what + " train confusion");
    expect_confusion_eq(r.characterizer.validation_confusion,
                        alone.characterizer.validation_confusion, what + " val confusion");
    expect_confusion_eq(r.table_one.counts, alone.table_one.counts, what + " Table I");
    EXPECT_EQ(r.characterizer_usable, alone.characterizer_usable) << what;
    EXPECT_EQ(r.safety.verdict, alone.safety.verdict) << what;
    EXPECT_EQ(r.safety.verification.verdict, alone.safety.verification.verdict) << what;
    standalone.reports.push_back(std::move(alone));
  }
  EXPECT_EQ(shared.format_table(), standalone.format_table());
}

// ---------------------------------------------------------------------
// Differential: shared preparation versus one workflow run per entry.

TEST(CampaignSharing, MatchesStandaloneRunsUnderMonitorBounds) {
  const SharingBattery& b = sharing_battery();
  std::string serial_table;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WorkflowConfig config = base_config();
    config.campaign_threads = threads;
    const CampaignReport report = run_campaign(b.net, 2, b.entries, config);
    expect_matches_standalone(b, config, report);
    EXPECT_EQ(report.characterizers_trained, b.characterizer_groups) << threads;
    EXPECT_EQ(report.feature_images, b.feature_images) << threads;
    const std::string summary = report.format_encoding_summary();
    EXPECT_NE(summary.find("preparation: 3 characterizers trained, 530 images forwarded"),
              std::string::npos)
        << summary;
    if (threads == 1)
      serial_table = report.format_table();
    else
      EXPECT_EQ(report.format_table(), serial_table);
  }
}

TEST(CampaignSharing, MatchesStandaloneRunsUnderStaticAnalysis) {
  // No monitor is built, but features and characterizers are still shared.
  const SharingBattery& b = sharing_battery();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WorkflowConfig config = base_config();
    config.assume_guarantee.bounds = BoundsSource::kStaticAnalysis;
    config.campaign_threads = threads;
    const CampaignReport report = run_campaign(b.net, 2, b.entries, config);
    expect_matches_standalone(b, config, report);
    EXPECT_EQ(report.characterizers_trained, b.characterizer_groups) << threads;
    EXPECT_EQ(report.feature_images, b.feature_images) << threads;
    for (const WorkflowReport& r : report.reports)
      EXPECT_FALSE(r.safety.deployed_monitor.has_value());
  }
}

TEST(CampaignSharing, PreparedPropertyServesEveryRisk) {
  // The workflow-level split: one prepare, several runs, each equal to
  // the all-in-one run.
  const SharingBattery& b = sharing_battery();
  const SafetyWorkflow workflow(b.net, 2);
  const WorkflowConfig config = base_config();
  const CampaignEntry& e = b.entries[0];
  const PreparedProperty prepared = workflow.prepare(e.property_train, e.property_val, config);
  ASSERT_TRUE(prepared.features->monitor.has_value());
  EXPECT_EQ(prepared.features->train.size(), e.property_train.size());
  EXPECT_EQ(prepared.features->val.size(), e.property_val.size());
  for (std::size_t i = 0; i < 3; ++i) {
    const CampaignEntry& entry = b.entries[i];
    const WorkflowReport shared = workflow.run(entry.property_name, prepared, entry.risk, config);
    const WorkflowReport alone = workflow.run(entry.property_name, entry.property_train,
                                              entry.property_val, entry.risk, config);
    EXPECT_EQ(shared.to_string(), alone.to_string()) << i;
  }
  // A property prepared for static analysis has no S̃ to verify against.
  WorkflowConfig static_config = config;
  static_config.assume_guarantee.bounds = BoundsSource::kStaticAnalysis;
  const PreparedProperty no_monitor =
      workflow.prepare(e.property_train, e.property_val, static_config);
  EXPECT_THROW(workflow.run(e.property_name, no_monitor, e.risk, config), ContractViolation);
}

TEST(CampaignSharing, BudgetRetryPassTrainsNoCharacterizer) {
  // Three risks over one property dataset, with a per-entry node budget
  // that starves the hard one: the retry pass re-verifies it against the
  // preparation the first pass made.
  Rng rng(67);
  const nn::Network net = make_monitored_net(rng, 8);
  Rng data_rng(68);
  const train::Dataset train_set = cloud(data_rng, 200, 0.5);
  const train::Dataset val_set = cloud(data_rng, 100, 0.5);
  const auto make_entries = [&](double hard_threshold) {
    verify::RiskSpec easy_a("far-out-a"), easy_b("far-out-b");
    easy_a.output_at_least(0, 1, 1e7);
    easy_b.output_at_least(0, 1, 2e7);
    verify::RiskSpec hard("close-call");
    hard.output_at_least(0, 1, hard_threshold);
    return std::vector<CampaignEntry>{{"x0-high", train_set, val_set, easy_a},
                                      {"x0-high", train_set, val_set, easy_b},
                                      {"x0-high", train_set, val_set, hard}};
  };
  double sampled_max = -1e100;
  for (int i = 0; i < 200; ++i) {
    const Tensor x = Tensor::vector1d({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  WorkflowConfig config = base_config();
  // The B&B must actually run out of nodes.
  config.assume_guarantee.verifier.falsify.enabled = false;

  std::vector<CampaignEntry> entries;
  std::size_t hard_nodes = 0, easy_nodes = 0;
  for (const double margin : {0.01, 0.02, 0.05, 0.1, 0.25, 0.5}) {
    entries = make_entries(sampled_max + margin);
    const CampaignReport uncapped = run_campaign(net, 2, entries, config);
    EXPECT_EQ(uncapped.characterizers_trained, 1u);
    hard_nodes = uncapped.reports[2].safety.verification.milp_nodes;
    easy_nodes = uncapped.reports[0].safety.verification.milp_nodes +
                 uncapped.reports[1].safety.verification.milp_nodes;
    if (hard_nodes >= 3) break;
  }
  ASSERT_GE(hard_nodes, 3u) << "no branching proof on this testbed";
  WorkflowConfig capped = config;
  capped.entry_node_budget = std::max<std::size_t>((hard_nodes + easy_nodes + 2) / 3, 2);
  ASSERT_LT(capped.entry_node_budget, hard_nodes);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    capped.campaign_threads = threads;
    const CampaignReport rescued = run_campaign(net, 2, entries, capped);
    EXPECT_EQ(rescued.budget_entries_retried, 1u) << threads;
    EXPECT_EQ(rescued.characterizers_trained, 1u) << threads;
    EXPECT_EQ(rescued.feature_images, train_set.size() + val_set.size()) << threads;
  }
}

// ---------------------------------------------------------------------
// Deadlines, resume and faults around shared preparation.

std::string reference_table() {
  static const std::string table =
      run_campaign(sharing_battery().net, 2, sharing_battery().entries, base_config())
          .format_table();
  return table;
}

TEST(CampaignSharingResume, CompletedCheckpointPreparesNothing) {
  const SharingBattery& b = sharing_battery();
  const std::string path = temp_path("sharing_complete");
  WorkflowConfig with_ckpt = base_config();
  with_ckpt.checkpoint_path = path;
  ASSERT_FALSE(run_campaign(b.net, 2, b.entries, with_ckpt).interrupted);

  WorkflowConfig cont = with_ckpt;
  cont.resume = true;
  cont.campaign_threads = 4;
  const CampaignReport resumed = run_campaign(b.net, 2, b.entries, cont);
  EXPECT_EQ(resumed.resume_entries_restored, b.entries.size());
  EXPECT_EQ(resumed.characterizers_trained, 0u);
  EXPECT_EQ(resumed.feature_images, 0u);
  EXPECT_EQ(resumed.format_table(), reference_table());
}

TEST(CampaignSharingResume, DeadlineCutsResumeToTheReferenceTable) {
  // Wherever a 4-thread deadline lands — mid-preparation, or with a
  // group half verified — the resume prepares what it still needs and
  // reproduces the uninterrupted table.
  const SharingBattery& b = sharing_battery();
  const std::string path = temp_path("sharing_deadline");
  bool saw_interrupt = false;
  for (std::uint64_t budget = 0; budget <= (1u << 20); budget = budget == 0 ? 1 : budget * 4) {
    std::remove(path.c_str());
    RunControl rc;
    rc.set_poll_budget(budget);
    WorkflowConfig cut = base_config();
    cut.campaign_threads = 4;
    cut.run_control = &rc;
    cut.checkpoint_path = path;
    const CampaignReport report = run_campaign(b.net, 2, b.entries, cut);
    if (!report.interrupted) {
      EXPECT_EQ(report.format_table(), reference_table()) << "budget " << budget;
      break;
    }
    saw_interrupt = true;
    WorkflowConfig cont = base_config();
    cont.campaign_threads = 4;
    cont.checkpoint_path = path;
    cont.resume = true;
    const CampaignReport resumed = run_campaign(b.net, 2, b.entries, cont);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_LE(resumed.characterizers_trained, b.characterizer_groups);
    EXPECT_EQ(resumed.format_table(), reference_table()) << "budget " << budget;
  }
  EXPECT_TRUE(saw_interrupt);
}

class CampaignSharingFaults : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(CampaignSharingFaults, PreparerFaultFailsItsWaitersAndResumes) {
  // The k-th preparation to start dies. Every job waiting on that group
  // rethrows instead of hanging; the pass surfaces a ParallelPassError,
  // settled entries are salvaged, and a resume completes the battery.
  const SharingBattery& b = sharing_battery();
  const std::string reference = reference_table();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t fire_at : {std::size_t{1}, std::size_t{2}}) {
      const std::string label =
          std::to_string(threads) + " threads, fault at " + std::to_string(fire_at);
      const std::string path = temp_path("sharing_fault");
      fault::disarm_all();
      fault::arm("core.prepare_throw", fire_at);
      WorkflowConfig cut = base_config();
      cut.campaign_threads = threads;
      cut.checkpoint_path = path;
      try {
        run_campaign(b.net, 2, b.entries, cut);
        ADD_FAILURE() << label << ": expected ParallelPassError";
      } catch (const ParallelPassError& e) {
        EXPECT_NE(std::string(e.what()).find("core.prepare_throw"), std::string::npos)
            << label << ": " << e.what();
      }
      EXPECT_EQ(fault::fires("core.prepare_throw"), 1u) << label;
      fault::disarm_all();

      WorkflowConfig cont = base_config();
      cont.campaign_threads = threads;
      cont.checkpoint_path = path;
      cont.resume = true;
      const CampaignReport resumed = run_campaign(b.net, 2, b.entries, cont);
      EXPECT_FALSE(resumed.interrupted) << label;
      EXPECT_LT(resumed.resume_entries_restored, b.entries.size()) << label;
      EXPECT_EQ(resumed.format_table(), reference) << label;
    }
  }
}

}  // namespace
}  // namespace dpv::core
