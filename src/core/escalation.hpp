// Escalating assume-guarantee verification.
//
// The paper's Sec. V narrative is an escalation story: plain per-neuron
// boxes were too coarse, so adjacent-difference bounds were added "in
// certain circumstances". EscalationVerifier automates that ladder. It
// tries progressively tighter S̃ polyhedra (and, at the last rung, LP
// bound tightening — the paper's future-work refinement), stopping at the
// first conditional proof:
//
//   rung 0  monitor box                       (Fig. 1)
//   rung 1  + adjacent differences            (Sec. V)
//   rung 2  + stride-2 pairwise differences   (generalization)
//   rung 3  + LP bound tightening             (future-work refinement)
//
// A counterexample found at a coarse rung may be spurious — it can lie
// outside a tighter S̃ the data also supports — so UNSAFE is only
// reported when the strongest rung confirms it. SAFE at rung k ships the
// rung-k monitor: exactly the constraints the runtime must discharge.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/assume_guarantee.hpp"
#include "monitor/relation_monitor.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {

/// One attempted rung of the ladder with its verdict and cost.
struct EscalationStep {
  std::string rung;
  verify::Verdict verdict = verify::Verdict::kUnknown;
  std::size_t binaries = 0;
  std::size_t milp_nodes = 0;
  double seconds = 0.0;
};

struct EscalationOutcome {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  /// Result at the rung that decided the outcome.
  verify::VerificationResult decision;
  /// One entry per rung attempted, in order.
  std::vector<EscalationStep> steps;
  /// Monitor matching the deciding rung's constraint set (present on a
  /// conditional proof; the runtime must enforce exactly these bounds).
  std::optional<monitor::RelationMonitor> deployed_monitor;

  std::string summary() const;
};

struct EscalationConfig {
  verify::TailVerifierOptions verifier = {};
};

class EscalationVerifier {
 public:
  explicit EscalationVerifier(EscalationConfig config = {}) : config_(std::move(config)) {}

  EscalationOutcome verify(const nn::Network& network, std::size_t attach_layer,
                           const nn::Network* characterizer, const verify::RiskSpec& risk,
                           const std::vector<Tensor>& odd_inputs) const;

 private:
  EscalationConfig config_;
};

}  // namespace dpv::core
