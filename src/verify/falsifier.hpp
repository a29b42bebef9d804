// Stage 0/1 of the staged falsify-then-prove pipeline.
//
// Section V of the paper: when a property cannot be proven "it should be
// possible to construct a counter example ... by using adversarial
// perturbation techniques". This module runs that idea *in front of* the
// MILP stack:
//
//   stage 0 (falsify)  — multi-start PGD directly on the query's risk
//       margin, searching the layer-l activation box for a point that
//       drives the tail output into the risk region while satisfying the
//       characterizer and the relational (diff / pair) constraints. A
//       hit settles UNSAFE with a concrete, forward-pass-validated
//       counterexample and the query never pays for an encoding.
//   stage 1 (prove)    — a zonotope sweep of the tail (interval fallback
//       for unsupported layer kinds): if some risk inequality is
//       unsatisfiable over the over-approximated output range, or the
//       characterizer's logit can never reach its threshold, the query
//       is SAFE without touching the MILP either.
//
// Soundness: stage 0 only reports UNSAFE after `validate_witness`
// re-executes the real tail and checks every constraint with a strict
// margin — a stale or spurious seed point can therefore never flip a
// verdict, it is just a start point that failed. Stage 1 only reports
// SAFE from a sound over-approximation of a superset of the feasible
// set (the box, ignoring diff/pair cuts), so SAFE here implies the MILP
// would have been infeasible. Everything else falls through to the
// encoder + branch & bound, unchanged.
//
// Determinism: all randomness derives from `FalsifyOptions::seed`; the
// search itself is single-threaded and const on the networks (it rides
// the stateless `Network::input_gradient` VJP), so campaign workers can
// falsify concurrently on shared networks and reports stay bit-identical
// across thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/run_control.hpp"
#include "verify/encoder.hpp"

namespace dpv::verify {

/// Tuning for the attack and bound-proof stages. Carried inside
/// TailVerifierOptions; `enabled` is the master switch (off here, on in
/// the default verifier options of campaigns and coverage runs).
struct FalsifyOptions {
  bool enabled = false;
  /// PGD starts: recycled seeds first, then the box midpoint, then
  /// restarts-1 deterministic random points in the box.
  std::size_t restarts = 4;
  /// PGD iterations per start.
  std::size_t steps = 60;
  /// Signed step size per dimension, as a fraction of that dimension's
  /// box width (the activation box is not isotropic).
  double step_scale = 0.08;
  /// Seed for the random restarts; run_campaign derives a per-entry
  /// value from this so tables stay bit-identical across thread counts.
  std::uint64_t seed = 0xfa151f;
  /// Strict slack every constraint must hold with before an attack
  /// witness may settle UNSAFE. Anything validated here also passes the
  /// MILP verifier's (looser) validation_tolerance check, which is what
  /// keeps decided verdicts compatible with a falsify-off run.
  double require_margin = 1e-9;
  /// Recycled start points in layer-l activation space (MILP
  /// counterexamples, B&B frontier near-misses, prior-rung witnesses).
  /// Clamped to the query box and validated like any other candidate.
  std::vector<Tensor> seed_points;
  /// Cap on how many seed_points are tried (earliest first).
  std::size_t max_seed_points = 8;
  /// Run the zonotope bound-proof stage after a failed attack.
  bool zonotope_prove = true;
  /// Generator budget for that sweep (0 = unlimited).
  std::size_t zonotope_generator_budget = 256;
  /// Cooperative cancellation: polled between PGD starts. Expiry makes
  /// the attack return early as "not falsified" — sound, the query just
  /// falls through to whatever stage the remaining budget allows. Not
  /// owned.
  const RunControl* run_control = nullptr;
};

/// Outcome of the stage-0 attack.
struct FalsifyReport {
  bool falsified = false;
  Tensor counterexample_activation;  ///< n̂_l, inside the query box
  Tensor counterexample_output;      ///< real tail output on it
  double characterizer_logit = 0.0;  ///< real logit on it (when h exists)
  std::size_t starts = 0;            ///< PGD starts consumed
  std::size_t seeds_tried = 0;       ///< recycled seed points consumed
};

/// Outcome of the stage-1 bound proof.
struct BoundProofReport {
  bool proved_safe = false;
  /// Which bound sealed the proof (risk inequality index or the
  /// characterizer), for the UNKNOWN-free funnel story.
  std::string reason;
  /// False when the tail used the interval fallback instead of the
  /// zonotope transformers.
  bool used_zonotope = false;
};

/// Strict concrete re-validation of an activation-space witness: box,
/// diff and pair constraints, characterizer threshold and every risk
/// inequality must hold with at least `require_margin` slack on a real
/// forward pass. Fills `output`/`logit` when non-null (also on failure,
/// when the forward pass ran). This is the only gate through which the
/// attack may settle UNSAFE.
bool validate_witness(const VerificationQuery& query, const Tensor& activation,
                      double require_margin, Tensor* output = nullptr, double* logit = nullptr);

/// Stage 0: multi-start projected gradient ascent on the risk margin.
FalsifyReport falsify_query(const VerificationQuery& query, const FalsifyOptions& options);

/// Stage 1: zonotope (or interval-fallback) output-range proof.
BoundProofReport prove_by_bounds(const VerificationQuery& query, const FalsifyOptions& options);

}  // namespace dpv::verify
