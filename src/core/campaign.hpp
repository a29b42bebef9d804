// Safety verification campaigns.
//
// A safety case for a direct perception network is never one query: it is
// a battery of (input property, risk condition) pairs, each with its own
// characterizer, verdict and statistical strength. A campaign runs the
// full workflow for every entry and aggregates the results into a single
// table — the artifact a safety engineer would actually review.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "solver/lp_backend.hpp"

namespace dpv::core {

/// One row of the safety case.
struct CampaignEntry {
  std::string property_name;
  train::Dataset property_train;  ///< image -> {0,1} oracle labels
  train::Dataset property_val;
  verify::RiskSpec risk;
};

struct CampaignReport {
  std::vector<WorkflowReport> reports;

  std::size_t safe_count = 0;           ///< conditional or unconditional
  std::size_t unsafe_count = 0;
  std::size_t unknown_count = 0;
  std::size_t uncharacterizable_count = 0;

  /// Shared-encoding accounting over the campaign's encoding cache.
  /// Note: hit/miss split may vary with thread interleaving (concurrent
  /// first touches of one key both count as misses); verdicts never do.
  std::size_t encoding_cache_hits = 0;
  std::size_t encoding_cache_misses = 0;
  std::size_t encoding_reused_rows = 0;       ///< rows inherited across all hits
  std::size_t encoding_reused_variables = 0;  ///< variables inherited across all hits
  double encode_seconds = 0.0;  ///< total per-entry encode (or stamp) wall time
  double solve_seconds = 0.0;   ///< total branch & bound wall time

  /// Node-budget re-allocation accounting (zero unless the config sets
  /// `entry_node_budget`; see core::BudgetedPass::retry): nodes returned
  /// unused by early finishers, nodes actually granted to node-limit
  /// UNKNOWN entries, entries re-run with a grant (0 when the deadline
  /// cut the retry pass), and the subset whose verdict improved past
  /// UNKNOWN. Retried entries' first-pass costs stay included in the
  /// node/seconds totals below.
  std::size_t budget_nodes_returned = 0;
  std::size_t budget_nodes_granted = 0;
  std::size_t budget_entries_retried = 0;
  std::size_t budget_entries_rescued = 0;

  /// Run-control / checkpoint accounting. `interrupted` is set when the
  /// configured deadline expired before every entry settled: the report
  /// then tallies deadline-skipped entries as UNKNOWN (marked in the
  /// table) and, when a checkpoint path is configured, the settled
  /// entries are on disk for a `resume` run. `resume_entries_restored`
  /// counts entries skipped on this run because a checkpoint settled
  /// them earlier.
  bool interrupted = false;
  std::size_t resume_entries_restored = 0;
  double checkpoint_seconds = 0.0;  ///< wall time writing checkpoints

  /// Staged-pipeline funnel (all zero when `falsify.enabled` is off):
  /// how many usable entries each stage settled, and what the cheap
  /// stages cost in wall seconds. Counts partition the decided entries —
  /// attack settles UNSAFE, zonotope settles SAFE, the MILP settles the
  /// rest either way, and UNKNOWN survived all three.
  std::size_t funnel_attack_falsified = 0;
  std::size_t funnel_zonotope_proved = 0;
  std::size_t funnel_milp_proved = 0;
  std::size_t funnel_milp_falsified = 0;
  std::size_t funnel_unknown = 0;
  double attack_seconds = 0.0;    ///< total stage-0 wall time
  double zonotope_seconds = 0.0;  ///< total stage-1 wall time
  /// Counterexample recycling: layer-l points (validated witnesses and
  /// B&B frontier near-misses) contributed to the start-point pool, and
  /// recycled seeds actually consumed by stage-0 attacks.
  std::size_t pool_points_contributed = 0;
  std::size_t attack_seeds_tried = 0;

  /// B&B nodes summed across entries, so node-count deltas between
  /// cuts-on and cuts-off campaigns are directly comparable (the cut
  /// counters themselves are in `solver_totals`).
  std::size_t milp_nodes = 0;

  /// Delta re-certification accounting (all zero unless the config set
  /// `delta_base` + `delta_artifacts_path` and the bundle loaded).
  /// Entries partition by how their bound trace was reused; cut counts
  /// are summed over entries, and `delta_bounds_refreshed` totals the
  /// per-query feature bounds the selective refresh actually shrank.
  std::size_t delta_entries_exact = 0;    ///< bit-identical trace reuse
  std::size_t delta_entries_widened = 0;  ///< Lipschitz-widened trace reuse
  std::size_t delta_entries_cold = 0;     ///< no reuse (no entry / over budget)
  std::size_t delta_cuts_recycled = 0;
  std::size_t delta_cuts_dropped = 0;
  std::size_t delta_bounds_refreshed = 0;
  double delta_refresh_seconds = 0.0;
  /// True when `delta_artifacts_out_path` was configured and the
  /// next-generation bundle was written.
  bool delta_artifacts_saved = false;

  /// Per-property preparation accounting: characterizer fits actually
  /// run and images actually forwarded to layer l by this call. Each
  /// distinct property dataset is prepared once and shared by all of its
  /// risks and by the budget retry pass, so on a battery of P distinct
  /// labellings over one image set these read P and (train + val) images
  /// rather than one fit and one forward pass per entry. Zero for entries
  /// restored from a checkpoint.
  std::size_t characterizers_trained = 0;
  std::size_t feature_images = 0;

  /// Full solver accounting merged across entries via
  /// solver::SolverStats::merge — warm starts, basis-factorization work
  /// (factorizations, eta updates + nonzeros, singular recoveries) and
  /// the factor-vs-pivot wall-time split. New SolverStats counters flow
  /// through without touching this struct.
  solver::SolverStats solver_totals;

  /// Aggregated table (one line per entry) plus a verdict tally.
  /// Deterministic: bit-identical across thread counts and between
  /// fresh-encode and cached-encode runs (perf numbers live in
  /// format_encoding_summary instead).
  std::string format_table() const;

  /// Encode-vs-solve seconds and encoding-cache reuse, the measurable
  /// win of the shared-tail design. Kept out of format_table so that
  /// table stays bit-identical across caching modes.
  std::string format_encoding_summary() const;
};

/// Runs the workflow for every entry against the same perception network.
///
/// Entries execute on a worker pool of `config.campaign_threads` (<= 1:
/// serial). Each entry's workflow is independently and deterministically
/// seeded, and results land in entry order, so reports are bit-identical
/// across thread counts. `config.entry_node_budget` (when nonzero) caps
/// each entry's MILP node budget so one hard query cannot starve the
/// battery.
///
/// With the staged pipeline on (`assume_guarantee.verifier.falsify
/// .enabled`, the default) every entry gets a deterministic per-entry
/// attack seed derived from the configured falsify seed and its entry
/// index, and stage-0 attacks are seeded from
/// `config.counterexample_pool` (per-campaign private pool when null)
/// under the entry's risk name. Witnesses and frontier near-misses are
/// contributed back between passes — never from inside a worker — so the
/// seed material every job sees is a pure function of entry index and
/// prior-pass results, keeping tables bit-identical across thread counts.
///
/// Each distinct property is prepared once (SafetyWorkflow::prepare) and
/// shared by every entry over the same data, in both passes. Entries are
/// grouped by dataset content, never by name: equal training and
/// validation images share one forward pass to layer l and one S̃
/// monitor, and equal labels on top share one characterizer fit. Tables
/// are bit-identical to running each entry alone, so sharing is always
/// on. Preparation happens inside the entry jobs (first job of a group
/// prepares, the others wait), so a pass still has one job per entry; if
/// the preparing job throws, every job waiting on it rethrows. Entry
/// dataset digests are part of the checkpoint identity: a battery
/// relabelled or regenerated under the same names does not resume an
/// old checkpoint.
CampaignReport run_campaign(const nn::Network& perception, std::size_t attach_layer,
                            const std::vector<CampaignEntry>& entries,
                            const WorkflowConfig& config);

}  // namespace dpv::core
