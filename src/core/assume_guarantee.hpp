// Assume-guarantee safety verification (Sec. II-B of the paper).
//
// Three ways to obtain the layer-l abstraction, in decreasing order of
// strength of the resulting claim:
//   * kStaticAnalysis — propagate the raw input box through the whole
//     prefix with interval arithmetic: a sound S (Lemma 2); a SAFE
//     verdict is unconditional, but the paper's footnote 1 explains why
//     this usually admits out-of-ODD garbage inputs and fails to prove
//     anything useful.
//   * kMonitorBox — S̃ = per-neuron min/max over the training data
//     (Fig. 1); SAFE becomes *conditional* on the runtime monitor, which
//     must check f^(l)(in) ∈ S̃ on every deployed frame.
//   * kMonitorBoxDiff — S̃ additionally bounded by adjacent-neuron
//     differences (Sec. V's strengthening); same conditionality.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "monitor/diff_monitor.hpp"
#include "nn/network.hpp"
#include "verify/delta.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {

enum class BoundsSource { kStaticAnalysis, kMonitorBox, kMonitorBoxDiff };

const char* bounds_source_name(BoundsSource source);

enum class SafetyVerdict {
  kSafeUnconditional,  ///< proven over a sound static S
  kSafeConditional,    ///< proven over S̃; valid while the monitor is quiet
  kUnsafe,             ///< counterexample within the abstraction
  kUnknown,            ///< solver resource limit
};

const char* safety_verdict_name(SafetyVerdict verdict);

struct AssumeGuaranteeConfig {
  BoundsSource bounds = BoundsSource::kMonitorBoxDiff;
  /// Fractional margin SafetyWorkflow::extract_features bakes into the
  /// S̃ monitor it builds (0 = exact hull).
  double monitor_margin = 0.0;
  verify::TailVerifierOptions verifier = {};

  /// Delta re-certification (src/verify/delta.hpp). When `delta_base`
  /// and `delta_artifacts` are both set and the artifact bundle has an
  /// entry under `delta_query_key`, the query plans the reuse against the
  /// network under verification, applies the surviving classes to a
  /// per-query copy of `verifier`, and records the reuse accounting in
  /// the SafetyCase. All pointers are borrowed and must outlive verify().
  const nn::Network* delta_base = nullptr;                   ///< exact base version
  const verify::DeltaArtifacts* delta_artifacts = nullptr;   ///< base's bundle
  std::size_t delta_query_key = 0;                           ///< entry to look up
  /// Out-slot: when set, the MILP stage harvests artifacts and the query
  /// packages them here (keyed by `delta_query_key`) for the caller to
  /// upsert into the next bundle. Left untouched when a cheap pipeline
  /// stage decided and the MILP never ran.
  verify::QueryArtifacts* delta_harvest = nullptr;
};

/// Verifier options with the staged falsify-then-prove pipeline on: the
/// default of campaigns (WorkflowConfig) and coverage runs
/// (CoverageOptions). The verify-level default keeps it off.
inline verify::TailVerifierOptions staged_verifier_options() {
  verify::TailVerifierOptions options;
  options.falsify.enabled = true;
  return options;
}

struct SafetyCase {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  BoundsSource bounds_source = BoundsSource::kMonitorBoxDiff;
  /// The verifier's record of the query: verdict, which stage decided
  /// it (`decided_by`) and what each stage cost.
  verify::VerificationResult verification;
  /// The monitor to deploy alongside a conditional proof.
  std::optional<monitor::DiffMonitor> deployed_monitor;

  /// Delta-reuse accounting (meaningful when the config carried delta
  /// artifacts): how the bound trace was reused and how many harvested
  /// cuts failed re-validation. The recycled count is
  /// `verification.cuts_recycled`.
  verify::TraceReuse delta_trace = verify::TraceReuse::kNone;
  std::size_t delta_cuts_dropped = 0;

  std::string summary() const;
};

class AssumeGuaranteeVerifier {
 public:
  explicit AssumeGuaranteeVerifier(AssumeGuaranteeConfig config = {});

  /// Verifies `risk` over the tail of `network` cut at `attach_layer`,
  /// with the layer-l box propagated from the raw input domain
  /// `input_box` (e.g. [0,1]^pixels). `config_.bounds` must be
  /// kStaticAnalysis; a SAFE verdict is unconditional. `characterizer`
  /// may be null (no property constraint).
  SafetyCase verify(const nn::Network& network, std::size_t attach_layer,
                    const nn::Network* characterizer, const verify::RiskSpec& risk,
                    const absint::Box& input_box) const;

  /// Same verification over a caller-built S̃: the query's layer-l box
  /// (and, under kMonitorBoxDiff, diff bounds) come from `mon` as-is, so
  /// any margin is the caller's to bake in. SafetyWorkflow builds one
  /// monitor per property, the scenario-coverage engine one per domain
  /// cell. `config_.bounds` must be a monitor source. A SAFE verdict is
  /// conditional on deploying exactly `mon`.
  SafetyCase verify_with_monitor(const nn::Network& network, std::size_t attach_layer,
                                 const nn::Network* characterizer,
                                 const verify::RiskSpec& risk,
                                 const monitor::DiffMonitor& mon) const;

 private:
  /// The one query path: builds the verification query over the
  /// layer-l abstraction, plans delta reuse, runs the verifier and maps
  /// its verdict to a SafetyVerdict.
  SafetyCase run_query(const nn::Network& network, std::size_t attach_layer,
                       const nn::Network* characterizer, const verify::RiskSpec& risk,
                       absint::Box input_box,
                       std::vector<absint::Interval> diff_bounds) const;

  AssumeGuaranteeConfig config_;
};

}  // namespace dpv::core
