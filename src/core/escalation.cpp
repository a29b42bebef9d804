#include "core/escalation.hpp"

#include <sstream>

#include "common/check.hpp"
#include "monitor/activation_recorder.hpp"

namespace dpv::core {

namespace {

/// One rung: which constraints enter the query and how bounds are found.
struct Rung {
  const char* name;
  /// Include stride-1..limit pairs; SIZE_MAX means all pairs; 0 = none.
  std::size_t pair_stride_limit;
  verify::BoundMethod bounds;
};

constexpr std::size_t kAllPairs = static_cast<std::size_t>(-1);

constexpr Rung kRungs[] = {
    {"box", 0, verify::BoundMethod::kInterval},
    {"box+adjacent-diff", 1, verify::BoundMethod::kInterval},
    {"box+all-pairs", kAllPairs, verify::BoundMethod::kSymbolic},
    {"box+all-pairs+lp-tightening", kAllPairs, verify::BoundMethod::kLpTightening},
};

std::vector<monitor::NeuronPair> pairs_up_to_stride(std::size_t width, std::size_t limit) {
  if (limit == kAllPairs) return monitor::RelationMonitor::all_pairs(width);
  std::vector<monitor::NeuronPair> pairs;
  for (std::size_t stride = 1; stride <= limit; ++stride)
    for (const monitor::NeuronPair& p : monitor::RelationMonitor::stride_pairs(width, stride))
      pairs.push_back(p);
  return pairs;
}

}  // namespace

std::string EscalationOutcome::summary() const {
  std::ostringstream out;
  out << safety_verdict_name(verdict) << " after " << steps.size() << " rung(s):";
  for (const EscalationStep& s : steps)
    out << "  [" << s.rung << ": " << verify::verdict_name(s.verdict) << ", "
        << s.milp_nodes << " nodes]";
  return out.str();
}

EscalationOutcome EscalationVerifier::verify(const nn::Network& network,
                                             std::size_t attach_layer,
                                             const nn::Network* characterizer,
                                             const verify::RiskSpec& risk,
                                             const std::vector<Tensor>& odd_inputs) const {
  check(!odd_inputs.empty(), "EscalationVerifier: ODD inputs required to build S~");
  const std::vector<Tensor> activations =
      monitor::record_activations(network, attach_layer, odd_inputs);
  const std::size_t width = activations.front().numel();

  EscalationOutcome outcome;
  // Discoveries carried up the ladder: a coarse rung's counterexample
  // (possibly spurious under a tighter S̃) or frontier near-miss is a
  // near-witness start for the next rung's stage-0 attack. Harmless when
  // the falsify pipeline is off — seed points are only read there.
  std::vector<Tensor> carried_seeds;
  for (const Rung& rung : kRungs) {
    monitor::RelationMonitor mon = monitor::RelationMonitor::from_activations(
        activations, pairs_up_to_stride(width, rung.pair_stride_limit));

    verify::VerificationQuery query;
    query.network = &network;
    query.attach_layer = attach_layer;
    query.characterizer = characterizer;
    query.risk = risk;
    query.input_box = mon.box();
    for (std::size_t k = 0; k < mon.pairs().size(); ++k)
      query.pair_bounds.push_back(
          {mon.pairs()[k].first, mon.pairs()[k].second, mon.pair_bounds()[k]});

    verify::TailVerifierOptions options = config_.verifier;
    options.encode.bounds = rung.bounds;
    options.falsify.seed_points.insert(options.falsify.seed_points.end(),
                                       carried_seeds.begin(), carried_seeds.end());
    const verify::VerificationResult result = verify::TailVerifier(options).verify(query);

    if (result.verdict == verify::Verdict::kUnsafe &&
        result.counterexample_activation.numel() > 0)
      carried_seeds.push_back(result.counterexample_activation);
    if (result.have_frontier_activation)
      carried_seeds.push_back(result.frontier_activation);

    outcome.steps.push_back(EscalationStep{rung.name, result.verdict,
                                           result.encoding.binaries, result.milp_nodes,
                                           result.solve_seconds});
    outcome.decision = result;
    if (result.verdict == verify::Verdict::kSafe) {
      outcome.verdict = SafetyVerdict::kSafeConditional;
      outcome.deployed_monitor = std::move(mon);
      return outcome;
    }
    // UNSAFE at a coarse rung may be spurious under a tighter S̃; keep
    // escalating. UNKNOWN likewise: a tighter abstraction may shrink the
    // search space enough to decide.
  }
  outcome.verdict = outcome.decision.verdict == verify::Verdict::kUnsafe
                        ? SafetyVerdict::kUnsafe
                        : SafetyVerdict::kUnknown;
  return outcome;
}

}  // namespace dpv::core
