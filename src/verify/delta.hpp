// Delta re-certification: artifact reuse across model versions.
//
// A certified model that gets retrained (fine-tuned, pruned-and-healed,
// repaired) almost never changes everywhere: nn::diff_networks locates
// the first changed layer and bounds the per-layer perturbation. This
// module turns that locality into wall-clock savings by reusing the
// previous certification's artifacts, each under its own soundness
// argument:
//
//   * Bound traces (the encoder's realized per-layer boxes). Reused
//     verbatim when the verified tail is bit-identical and the input
//     abstraction unchanged — the encoding then reproduces
//     bit-identically (trace-override parity). Otherwise widened by the
//     Lipschitz-style radii of absint/perturbation, which are sound by
//     the coupling argument documented there; big-M encodings stay
//     exact under any sound bounds, so verdicts are preserved either
//     way.
//   * Root-cut pools (harvested with generator provenance). Recycled
//     only when their validity provably carries over: either the whole
//     per-query problem reproduces bit-identically (tail identical +
//     same abstraction + matching query fingerprint — any source,
//     including Gomory), or the cut is a ReLU-split cut referencing
//     only variables created before the first changed tail layer.
//     ReLU-split cuts depend on nothing but
//     one big-M block's rows and boxes; an unchanged-prefix block
//     reproduces bit-identically under trace reuse (prefix widening
//     radii are exactly zero when the abstraction is unchanged), so the
//     cut stays valid for the new problem. Gomory cuts bake in the root
//     tableau and are dropped whenever anything changed.
//   * Pseudocost tables, demoted to warm priors. Keyed by variable
//     *name* (verify::NamedPseudocost) because a weight delta can flip
//     ReLU stability and shift every later variable index. Priors bias
//     node order only; verdicts of searches run to completion are
//     unaffected, so this class needs no parity caveats at all.
//
// Artifacts carry a versioned identity: the base model's fingerprint
// folded with the fingerprint of every retrained version since
// (versioned_cache_key). The key doubles as the encoder's
// tail_bound_trace_key, so encoding-cache entries built from different
// delta chains never alias. Persistence uses the same bit-exact
// hexfloat token stream as core/checkpoint (src/common/record_io).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/diff.hpp"
#include "verify/verifier.hpp"

namespace dpv::verify {

/// Everything persisted from one certified query of a model version.
/// `query_key` is the caller's identity for the (abstraction,
/// characterizer, risk) triple — artifacts must only ever be applied to
/// the query they were harvested from (the campaign layer keys by entry
/// id). The input box is stored too and re-checked bitwise at plan
/// time, so a drifted data-derived abstraction degrades to widened
/// reuse instead of unsound exact reuse.
struct QueryArtifacts {
  std::size_t query_key = 0;
  Verdict verdict = Verdict::kUnknown;  ///< the base run's verdict
  /// Content hash of everything beyond the tail + input box that shapes
  /// the per-query problem: diff/pair bounds, characterizer weights +
  /// threshold, risk inequalities (delta_query_fingerprint). Whole-pool
  /// cut recycling — the only reuse class whose argument needs the
  /// *entire* problem to reproduce bit-identically — requires it to
  /// match; every other class survives a mismatch.
  std::size_t query_fingerprint = 0;
  absint::Box input_box;  ///< abstraction the artifacts assume
  std::vector<absint::Box> tail_boxes;
  std::vector<std::vector<std::size_t>> tail_vars;
  std::vector<milp::cuts::Cut> root_cuts;
  std::vector<NamedPseudocost> pseudocosts;
};

/// The on-disk artifact bundle of one certified model version.
struct DeltaArtifacts {
  /// Whole-network fingerprint (tail_fingerprint from layer 0) of the
  /// version whose certification produced these artifacts...
  std::size_t base_fingerprint = 0;
  /// ...minus the delta chain: fingerprints of every re-certified
  /// version since the original base, oldest first. Empty for a cold
  /// (non-delta) certification.
  std::vector<std::size_t> delta_chain;
  std::size_t attach_layer = 0;
  std::vector<QueryArtifacts> queries;

  /// versioned_cache_key(base_fingerprint, delta_chain) — never zero.
  std::size_t versioned_key() const;
  const QueryArtifacts* find(std::size_t query_key) const;
  /// Insert-or-replace by query_key.
  void upsert(QueryArtifacts artifacts);
};

/// Bundle for a cold certification of `network` (empty delta chain).
DeltaArtifacts make_base_artifacts(const nn::Network& network, std::size_t attach_layer);

/// Next-generation bundle after re-certifying `updated` against
/// `previous`: same original base fingerprint, chain extended by the
/// updated model's fingerprint, no query entries yet (the caller
/// upserts fresh harvests as queries complete).
DeltaArtifacts advance_artifacts(const DeltaArtifacts& previous, const nn::Network& updated);

/// Packages one query's DeltaHarvest for persistence (computes the
/// query fingerprint from `query`).
QueryArtifacts harvest_to_artifacts(std::size_t query_key, const VerificationQuery& query,
                                    const VerificationResult& result, DeltaHarvest harvest);

/// Content hash of the per-query problem shape beyond tail + input box:
/// diff/pair bounds, characterizer weights + decision threshold, risk
/// inequalities. See QueryArtifacts::query_fingerprint.
std::size_t delta_query_fingerprint(const VerificationQuery& query);

/// Atomic save (temp file + rename) in the shared record-I/O format.
void save_delta_artifacts(const std::string& path, const DeltaArtifacts& artifacts);
/// False when the file does not exist; throws ContractViolation on a
/// malformed or version-incompatible file.
bool load_delta_artifacts(const std::string& path, DeltaArtifacts& out);

struct DeltaPlanOptions {
  bool reuse_bound_trace = true;
  bool recycle_cuts = true;
  bool reuse_pseudocosts = true;
  /// Fall back to a fresh bound pre-pass when the widening's largest
  /// radius exceeds this: verdicts would still be preserved (widened
  /// bounds are sound), but big-M constants grow with the radii and a
  /// badly stale trace makes the search slower than a cold encode.
  double max_widening = 1.0;
};

/// How the bound trace is being reused for one query.
enum class TraceReuse {
  kNone,    ///< fresh pre-pass (no reuse, or widening over budget)
  kExact,   ///< verbatim boxes; encoding reproduces bit-identically
  kWidened  ///< boxes widened by the Lipschitz perturbation radii
};

const char* trace_reuse_name(TraceReuse reuse);

/// One query's reuse decision plus the owned data backing it. The plan
/// must outlive every verify() call it is applied to — apply() wires
/// raw pointers into the options.
struct DeltaPlan {
  /// False when the architectures differ or the artifacts belong to a
  /// different attach layer: nothing can be reused, run cold.
  bool usable = false;
  bool tail_identical = false;  ///< no changed layer in [attach, L)
  /// True when the query's input box differs bitwise from the box the
  /// artifacts were harvested under. Only then can a widened trace
  /// leave the layer-l feature bounds stale — with an identical box the
  /// entry bounds are unchanged, so callers should skip the selective
  /// per-query refresh (its LPs would re-derive the same bounds).
  bool abstraction_changed = false;
  TraceReuse trace = TraceReuse::kNone;
  double widening = 0.0;  ///< max radius applied (kWidened only)
  /// Versioned identity of the NEW certification (previous chain +
  /// updated fingerprint); becomes the encoder's trace key.
  std::size_t trace_key = 0;
  std::vector<absint::Box> bound_trace;
  std::vector<milp::cuts::Cut> cuts;  ///< re-validated, provenance kept
  std::size_t cuts_dropped = 0;       ///< harvested cuts that failed re-validation
  std::vector<NamedPseudocost> pseudocosts;

  /// Wires the plan into verifier options: bound trace + key into
  /// `encode`, recycled cuts into `milp.cuts.initial_cuts`, priors into
  /// `pseudocost_priors`. No-ops for the classes the plan rejected. A
  /// widened trace over a changed abstraction also turns on
  /// `refresh_query_bounds`: the only place that rule lives.
  void apply(TailVerifierOptions& options) const;
};

/// Decides, for one query, which artifact classes carry over from
/// `artifacts`/`entry` (the base model's bundle and this query's entry
/// in it) to a re-certification of `updated`. `base` must be the exact
/// network version the artifacts were harvested from — the plan
/// re-diffs it against `updated` and every soundness argument above is
/// anchored to that diff.
DeltaPlan plan_delta_reuse(const DeltaArtifacts& artifacts, const QueryArtifacts& entry,
                           const nn::Network& base, const nn::Network& updated,
                           const VerificationQuery& query, const DeltaPlanOptions& options);

}  // namespace dpv::verify
