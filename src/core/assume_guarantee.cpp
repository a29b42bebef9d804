#include "core/assume_guarantee.hpp"

#include <sstream>

#include "absint/box_domain.hpp"
#include "common/check.hpp"

namespace dpv::core {

const char* bounds_source_name(BoundsSource source) {
  switch (source) {
    case BoundsSource::kStaticAnalysis:
      return "static-interval-analysis";
    case BoundsSource::kMonitorBox:
      return "monitor-box";
    case BoundsSource::kMonitorBoxDiff:
      return "monitor-box+diff";
  }
  return "?";
}

const char* safety_verdict_name(SafetyVerdict verdict) {
  switch (verdict) {
    case SafetyVerdict::kSafeUnconditional:
      return "SAFE (unconditional)";
    case SafetyVerdict::kSafeConditional:
      return "SAFE (conditional on runtime monitor)";
    case SafetyVerdict::kUnsafe:
      return "UNSAFE (counterexample in abstraction)";
    case SafetyVerdict::kUnknown:
      return "UNKNOWN (resource limit)";
  }
  return "?";
}

std::string SafetyCase::summary() const {
  std::ostringstream out;
  out << safety_verdict_name(verdict) << " via " << bounds_source_name(bounds_source) << "; "
      << verification.summary();
  return out.str();
}

AssumeGuaranteeVerifier::AssumeGuaranteeVerifier(AssumeGuaranteeConfig config)
    : config_(std::move(config)) {}

SafetyCase AssumeGuaranteeVerifier::verify(const nn::Network& network,
                                           std::size_t attach_layer,
                                           const nn::Network* characterizer,
                                           const verify::RiskSpec& risk,
                                           const absint::Box& input_box) const {
  check(config_.bounds == BoundsSource::kStaticAnalysis,
        "AssumeGuaranteeVerifier: monitor bounds go through verify_with_monitor");
  check(!input_box.empty(),
        "AssumeGuaranteeVerifier: static analysis requires the raw input box");
  return run_query(network, attach_layer, characterizer, risk,
                   absint::propagate_box_range(network, input_box, 0, attach_layer), {});
}

SafetyCase AssumeGuaranteeVerifier::verify_with_monitor(const nn::Network& network,
                                                        std::size_t attach_layer,
                                                        const nn::Network* characterizer,
                                                        const verify::RiskSpec& risk,
                                                        const monitor::DiffMonitor& mon) const {
  check(config_.bounds != BoundsSource::kStaticAnalysis,
        "AssumeGuaranteeVerifier: verify_with_monitor needs a monitor bounds source");
  SafetyCase result =
      run_query(network, attach_layer, characterizer, risk, mon.box(),
                config_.bounds == BoundsSource::kMonitorBoxDiff ? mon.diff_bounds()
                                                                : std::vector<absint::Interval>{});
  result.deployed_monitor = mon;
  return result;
}

SafetyCase AssumeGuaranteeVerifier::run_query(const nn::Network& network,
                                              std::size_t attach_layer,
                                              const nn::Network* characterizer,
                                              const verify::RiskSpec& risk,
                                              absint::Box input_box,
                                              std::vector<absint::Interval> diff_bounds) const {
  verify::VerificationQuery query;
  query.network = &network;
  query.attach_layer = attach_layer;
  query.characterizer = characterizer;
  query.risk = risk;
  query.input_box = std::move(input_box);
  query.diff_bounds = std::move(diff_bounds);

  SafetyCase result;
  result.bounds_source = config_.bounds;

  // Delta re-certification: plan artifact reuse against the base
  // version's bundle and apply the surviving classes to a per-query
  // options copy. The plan owns the widened trace / recycled cuts /
  // priors that apply() wires in by pointer, so it must live until
  // verify() returns.
  verify::TailVerifierOptions options = config_.verifier;
  verify::DeltaPlan plan;
  if (config_.delta_base != nullptr && config_.delta_artifacts != nullptr) {
    const verify::QueryArtifacts* entry =
        config_.delta_artifacts->find(config_.delta_query_key);
    if (entry != nullptr) {
      plan = verify::plan_delta_reuse(*config_.delta_artifacts, *entry, *config_.delta_base,
                                      network, query, {});
      if (plan.usable) {
        plan.apply(options);
        result.delta_trace = plan.trace;
        result.delta_cuts_dropped = plan.cuts_dropped;
      }
    }
  }

  // Harvest for the NEXT delta generation: route the MILP artifacts into
  // a stack-local slot and package them after the verdict.
  verify::DeltaHarvest harvest;
  if (config_.delta_harvest != nullptr) options.harvest = &harvest;

  const verify::TailVerifier verifier(options);
  result.verification = verifier.verify(query);
  if (config_.delta_harvest != nullptr && harvest.captured)
    *config_.delta_harvest = verify::harvest_to_artifacts(
        config_.delta_query_key, query, result.verification, std::move(harvest));

  switch (result.verification.verdict) {
    case verify::Verdict::kSafe:
      result.verdict = config_.bounds == BoundsSource::kStaticAnalysis
                           ? SafetyVerdict::kSafeUnconditional
                           : SafetyVerdict::kSafeConditional;
      break;
    case verify::Verdict::kUnsafe:
      result.verdict = SafetyVerdict::kUnsafe;
      break;
    case verify::Verdict::kUnknown:
      result.verdict = SafetyVerdict::kUnknown;
      break;
  }
  return result;
}

}  // namespace dpv::core
