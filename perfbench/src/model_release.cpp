// The model-release workload: what a user waits for after retraining.
//
// Set-up renders the road data and trains the 32x16 testbed perception
// network from scratch in this process (the bench/common/testbed recipe,
// without its on-disk model cache). Each pass then builds the safety
// case: a property x risk campaign (core::run_campaign), followed by ODD
// coverage maps for several risks (core::run_coverage). The inputs are
// fixed by the recipe's own seeds, which is what makes the committed
// campaign table and coverage maps a known answer; the run seed only
// permutes the order of the coverage risks.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "core/characterizer.hpp"
#include "core/coverage.hpp"
#include "core/statistical.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "monitor/activation_recorder.hpp"
#include "monitor/diff_monitor.hpp"
#include "replay.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

using namespace dpv;

// The bench/common/testbed recipe.
constexpr std::size_t kTrainCount = 1400;
constexpr std::size_t kValCount = 600;
constexpr std::uint64_t kTrainSeed = 101;
constexpr std::uint64_t kValSeed = 202;
constexpr std::uint64_t kInitSeed = 7;
const train::TrainerConfig kFitConfig = {.epochs = 18, .batch_size = 32, .shuffle_seed = 3};

struct Release {
  data::PerceptionModel model;
  std::vector<data::RoadSample> train_samples;
  std::vector<data::RoadSample> val_samples;
  train::Dataset regression_train;
  double generate_s = 0.0;
  double fit_s = 0.0;
};

Release build_release(Tracer& tracer) {
  Release r;
  const data::PerceptionConfig pconfig;  // 32x16 grayscale, 16 feature neurons
  {
    const Scope span(tracer, "data.generate");
    const auto start = Clock::now();
    r.train_samples = data::generate_road_samples({kTrainCount, kTrainSeed, pconfig.render});
    r.val_samples = data::generate_road_samples({kValCount, kValSeed, pconfig.render});
    r.regression_train = data::to_regression_dataset(r.train_samples);
    r.generate_s = seconds_since(start);
  }
  Rng rng(kInitSeed);
  r.model = data::make_perception_network(pconfig, rng);
  {
    const Scope span(tracer, "train.fit");
    const auto start = Clock::now();
    train::MseLoss loss;
    train::Adam optimizer(0.005);
    train::Trainer(kFitConfig).fit(r.model.network, r.regression_train, loss, optimizer);
    r.fit_s = seconds_since(start);
  }
  return r;
}

verify::RiskSpec risk_at_most(const char* name, std::size_t output, double value) {
  verify::RiskSpec risk(name);
  risk.output_at_most(output, 2, value);
  return risk;
}

verify::RiskSpec risk_at_least(const char* name, std::size_t output, double value) {
  verify::RiskSpec risk(name);
  risk.output_at_least(output, 2, value);
  return risk;
}

/// Outputs are [waypoint, heading].
std::vector<verify::RiskSpec> campaign_risks() {
  verify::RiskSpec straight("steer-straight (|heading| <= 0.05)");
  straight.output_in_range(1, 2, -0.05, 0.05);
  return {straight, risk_at_most("steer-hard-left (heading <= -1.2)", 1, -1.2),
          risk_at_least("steer-hard-right (heading >= 1.2)", 1, 1.2)};
}

/// The first risk is bench_coverage's: 67.1875% of the ODD certifiable.
std::vector<verify::RiskSpec> coverage_risks() {
  return {risk_at_most("heading-hard-left (heading <= -0.7)", 1, -0.7),
          risk_at_least("heading-hard-right (heading >= 0.7)", 1, 0.7),
          risk_at_most("waypoint-far-left (waypoint <= -0.6)", 0, -0.6)};
}

std::vector<core::CampaignEntry> campaign_entries(const Release& r) {
  std::vector<core::CampaignEntry> entries;
  for (const data::InputProperty property :
       {data::InputProperty::kBendRightStrong, data::InputProperty::kBendLeftStrong,
        data::InputProperty::kTrafficAdjacent, data::InputProperty::kLowLight})
    for (const verify::RiskSpec& risk : campaign_risks())
      entries.push_back({data::property_name(property),
                         data::to_property_dataset(r.train_samples, property),
                         data::to_property_dataset(r.val_samples, property), risk});
  return entries;
}

core::WorkflowConfig campaign_config(const Options& options) {
  core::WorkflowConfig config;
  config.campaign_threads = options.threads;
  config.entry_node_budget = 20000;
  return config;
}

core::CoverageOptions coverage_options(const Release& r, const Options& options) {
  core::CoverageOptions coverage;
  coverage.render = r.model.config.render;
  coverage.threads = options.threads;
  return coverage;
}

const char* verdict_of(core::SafetyVerdict v) {
  switch (v) {
    case core::SafetyVerdict::kSafeUnconditional:
    case core::SafetyVerdict::kSafeConditional:
      return "SAFE";
    case core::SafetyVerdict::kUnsafe:
      return "UNSAFE";
    case core::SafetyVerdict::kUnknown:
      break;
  }
  return "UNKNOWN";
}

double verify_ms(const verify::VerificationResult& v) {
  return 1e3 * (v.attack_seconds + v.zonotope_seconds + v.encode_seconds + v.solve_seconds +
                v.refresh_seconds);
}

bool reached_verifier(const core::CoverageCell& cell) {
  return cell.decided_by == "attack" || cell.decided_by == "zonotope" ||
         cell.decided_by == "milp";
}

std::string coverage_answer(const verify::RiskSpec& risk, const core::CoverageReport& report) {
  std::size_t certified = 0, unsafe = 0, unknown = 0;
  for (const std::size_t id : report.map.leaves()) {
    const core::CellStatus status = report.map.cell(id).status;
    certified += status == core::CellStatus::kCertified;
    unsafe += status == core::CellStatus::kUnsafe;
    unknown += status == core::CellStatus::kUnknown;
  }
  char head[256];
  std::snprintf(head, sizeof head,
                "== coverage: %s\ncertified %.4f%%, leaves: %zu certified, %zu unsafe, "
                "%zu unknown\n",
                risk.name().c_str(), 100.0 * report.map.certified_volume_fraction(), certified,
                unsafe, unknown);
  return head + report.format_table() + report.map.format_map();
}

}  // namespace

RunResult run_model_release(const Options& options, Tracer& tracer) {
  RunResult result;
  Release release;
  {
    result.setup_probe_seconds.push_back(speed_probe_seconds());
    const Scope span(tracer, "setup");
    const auto start = Clock::now();
    release = build_release(tracer);
    result.setup_seconds.push_back(seconds_since(start));
  }
  const nn::Network& net = release.model.network;
  const std::size_t layer = release.model.attach_layer;
  const std::vector<core::CampaignEntry> entries = campaign_entries(release);
  const core::WorkflowConfig config = campaign_config(options);
  const std::vector<verify::RiskSpec> risks = coverage_risks();
  const std::vector<std::size_t> risk_order = seeded_order(risks.size(), options.seed);

  std::vector<double> campaign_walls, coverage_walls;
  core::CampaignReport campaign;
  std::vector<core::CoverageReport> coverage(risks.size());
  run_passes(options, tracer, result, [&] {
    auto start = Clock::now();
    {
      const Scope span(tracer, "core.campaign");
      campaign = core::run_campaign(net, layer, entries, config);
    }
    campaign_walls.push_back(seconds_since(start));
    start = Clock::now();
    for (const std::size_t i : risk_order) {
      const Scope span(tracer, "core.coverage", static_cast<long>(i));
      coverage[i] = core::run_coverage(net, layer, risks[i], core::OperationalDomain{},
                                       coverage_options(release, options));
    }
    coverage_walls.push_back(seconds_since(start));

    PassOutcome outcome;
    outcome.answers = "== campaign\n" + campaign.format_table() + "\n";
    for (const core::WorkflowReport& report : campaign.reports)
      outcome.latencies_ms.push_back(verify_ms(report.safety.verification));
    outcome.operations = campaign.reports.size();
    outcome.undecided = campaign.unknown_count;
    double certified = 0.0;
    for (std::size_t i = 0; i < risks.size(); ++i) {
      outcome.answers += coverage_answer(risks[i], coverage[i]);
      for (const core::CoverageCell& cell : coverage[i].map.cells())
        if (reached_verifier(cell))
          outcome.latencies_ms.push_back(verify_ms(cell.safety.verification));
      outcome.operations += coverage[i].map.cells().size();
      outcome.undecided += coverage[i].unknown_cells;
      certified += coverage[i].map.certified_volume_fraction();
    }
    result.certified_frac = certified / static_cast<double>(risks.size());
    return outcome;
  });
  if (!options.trace) return result;

  // ---- Per-layer replay of the last campaign, entry by entry, through
  // the public entry points the workflow sequences.
  auto& m = result.layer;
  m["data.generate_s"] = release.generate_s;
  m["train.fit_s"] = release.fit_s;
  m["train.fit_samples_per_s"] =
      static_cast<double>(kFitConfig.epochs * release.regression_train.size()) / release.fit_s;
  {
    const std::vector<Tensor> inputs = release.regression_train.inputs();
    const Scope span(tracer, "nn.forward");
    const auto start = Clock::now();
    for (const Tensor& x : inputs) net.forward(x);
    m["nn.forward_per_s"] = static_cast<double>(inputs.size()) / seconds_since(start);
  }
  LayerTotals totals;
  double characterizer_s = 0.0, record_s = 0.0, build_s = 0.0, table_one_s = 0.0;
  double entry_s = 0.0;
  const Scope replay_span(tracer, "replay");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::CampaignEntry& entry = entries[i];
    const long op = static_cast<long>(i);
    const Scope entry_span(tracer, "replay.entry", op);
    const auto entry_start = Clock::now();
    const auto timed = [&](const char* name, double& total, auto&& fn) {
      const Scope span(tracer, name, op);
      const auto start = Clock::now();
      fn();
      total += seconds_since(start);
    };
    core::TrainedCharacterizer h;
    timed("train.characterizer", characterizer_s, [&] {
      h = core::train_characterizer(net, layer, entry.property_train, entry.property_val,
                                    config.characterizer);
    });
    std::vector<Tensor> activations;
    timed("monitor.record", record_s, [&] {
      activations = monitor::record_activations(net, layer, entry.property_train.inputs());
    });
    std::optional<monitor::DiffMonitor> mon;
    timed("monitor.build", build_s, [&] {
      mon = monitor::DiffMonitor::from_activations(activations,
                                                   config.assume_guarantee.monitor_margin);
    });
    verify::VerificationQuery query;
    query.network = &net;
    query.attach_layer = layer;
    query.characterizer = &h.network;
    query.risk = entry.risk;
    query.input_box = mon->box();
    query.diff_bounds = mon->diff_bounds();

    // The campaign's per-entry verifier: staged pipeline on, the entry's
    // node budget, and its attack seed derived from the entry index.
    verify::TailVerifierOptions verifier = config.assume_guarantee.verifier;
    verifier.falsify.enabled = true;
    verifier.falsify.seed += 0x9e3779b97f4a7c15ULL * (i + 1);
    verifier.milp.max_nodes = config.entry_node_budget;
    const verify::Verdict verdict = replay_query(query, verifier, nullptr, op, tracer, totals);
    timed("core.table_one", table_one_s,
          [&] { core::estimate_table_one(net, layer, h.network, entry.property_val); });
    entry_s += seconds_since(entry_start);
    ++result.replays;
    if (std::string(verify::verdict_name(verdict)) !=
        verdict_of(campaign.reports[i].safety.verdict))
      ++result.replay_mismatches;
  }
  put_layer_totals(totals, result);
  m["train.characterizer_s"] = characterizer_s;
  m["monitor.record_s"] = record_s;
  m["monitor.build_s"] = build_s;
  m["core.table_one_s"] = table_one_s;
  m["core.entry_s"] = entry_s / static_cast<double>(entries.size());
  const std::size_t lookups = campaign.encoding_cache_hits + campaign.encoding_cache_misses;
  m["verify.encode_cache_hit_frac"] =
      lookups > 0 ? campaign.encoding_cache_hits / static_cast<double>(lookups) : 0.0;
  double round_s = 0.0;
  std::size_t rounds = 0;
  for (const core::CoverageReport& report : coverage)
    for (const core::CoverageRound& round : report.rounds) {
      round_s += round.wall_seconds;
      ++rounds;
    }
  m["core.round_s"] = rounds > 0 ? round_s / static_cast<double>(rounds) : 0.0;
  m["core.campaign_s"] = median(campaign_walls);
  m["core.coverage_s"] = median(coverage_walls);
  m["verify.cert_s"] = 0.0;
  m["verify.recert_s"] = 0.0;
  return result;
}

}  // namespace perfbench
