// Replays of TailVerifier::verify through the library's public entry
// points, with a span around each layer call and the counters the
// library returns summed into per-layer totals.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "solver/lp_backend.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

struct LayerTotals {
  double attack_s = 0.0, prove_s = 0.0, encode_s = 0.0, solve_s = 0.0, plan_s = 0.0;
  double refresh_s = 0.0;
  std::size_t attacks = 0, attack_hits = 0, attack_starts = 0, proofs = 0, proof_hits = 0;
  std::size_t tightening_lps = 0, binaries = 0, rows = 0, nodes = 0, cuts_added = 0;
  std::size_t peak_open = 0, plans = 0, plans_usable = 0, cuts_recycled = 0;
  dpv::solver::SolverStats lp;
};

/// The verifier's stages in order: falsify_query and prove_by_bounds
/// when `options.falsify` enables them, then encode_tail_query, the
/// risk-margin objective and BranchAndBoundSolver::solve. Returns the
/// verdict the stages reach (witness validation is the orchestrator's).
dpv::verify::Verdict replay_query(const dpv::verify::VerificationQuery& q,
                                  const dpv::verify::TailVerifierOptions& options,
                                  const std::vector<dpv::verify::NamedPseudocost>* priors,
                                  long op, Tracer& tracer, LayerTotals& totals);

/// Writes the verify/absint/milp/lp per-layer metrics from `totals`.
void put_layer_totals(const LayerTotals& totals, RunResult& result);

}  // namespace perfbench
