// Checkpoint/resume for long verification runs.
//
// A campaign or coverage run interrupted by a deadline (or killed by an
// injected fault) must not lose its settled work: run_campaign writes a
// checkpoint of every settled first-pass entry after the pass, and
// run_coverage writes the full map/pool state at the start of each
// refinement round. A `resume` run loads the file, validates that it was
// produced by the *same* problem (network fingerprint + a hash of every
// semantics-affecting option — thread counts deliberately excluded), and
// skips the settled work. Because everything downstream of the restored
// state is a pure function of it (pool contributions replay in entry/id
// order, retry passes re-derive grants from the restored first-pass
// results), a resumed run reproduces the uninterrupted run's tables
// bit-identically — doubles round-trip through hexfloat, never decimal.
//
// Granularity is deliberately coarse:
//   * campaign — first-pass records only. The retry (budget
//     re-allocation) pass is cheap relative to the first pass and is a
//     pure function of it, so it simply re-runs on resume instead of
//     being checkpointed mid-flight.
//   * coverage — whole rounds. A round interrupted mid-pass restarts
//     from the round-start checkpoint; outcomes applied after the
//     interrupt are report-only and never leak into the resumed state.
//
// Files are written atomically (temp file + rename), so a fault during
// the write leaves the previous checkpoint intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/coverage.hpp"
#include "core/workflow.hpp"

namespace dpv::core {

/// FNV-1a accumulator for the config hashes stored in checkpoint
/// headers. Only semantics-affecting options go in (never thread
/// counts): two configs with equal hashes must produce bit-identical
/// tables when run to completion.
class ConfigHasher {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(const std::string& s);
  void add(std::uint64_t v);
  void add(double v);  ///< hashed by bit pattern, so -0.0 != +0.0
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  /// The verdict-affecting verifier options campaigns and coverage runs
  /// both hash: node cap, validation tolerance, margin objective and the
  /// attack's restarts, steps, step scale and seed.
  void add_verifier(const verify::TailVerifierOptions& v);

  std::size_t hash() const { return state_; }

 private:
  std::size_t state_ = 0xcbf29ce484222325ULL;
};

/// Throws ContractViolation unless a loaded checkpoint header matches
/// the run: same network fingerprint and config hash. `who` (the entry
/// point's name) prefixes the message.
void check_checkpoint_identity(const char* who, std::size_t loaded_fingerprint,
                               std::size_t loaded_config_hash, std::size_t fingerprint,
                               std::size_t config_hash);

/// One settled first-pass entry of a campaign: exactly the fields the
/// downstream passes read — pool contribution replay, budget
/// re-allocation, the verdict table and the funnel tally. Perf-only
/// fields (wall seconds, solver stats) are deliberately absent; they are
/// reported as spent by whichever process actually spent them.
struct CampaignEntryRecord {
  std::size_t index = 0;
  std::string property_name;  ///< identity check against the entry list
  std::string risk_name;
  train::ConfusionCounts train_confusion;
  train::ConfusionCounts validation_confusion;
  bool characterizer_usable = false;
  SafetyVerdict safety_verdict = SafetyVerdict::kUnknown;
  BoundsSource bounds_source = BoundsSource::kMonitorBoxDiff;
  /// Whether the staged pipeline ran (restored as one synthetic
  /// "checkpoint-restored" EscalationStep so funnel accounting still
  /// sees a pipeline entry).
  bool pipeline_ran = false;
  train::ConfusionCounts table_one;
  verify::Verdict verdict = verify::Verdict::kUnknown;
  verify::DecisionStage decided_by = verify::DecisionStage::kMilp;
  std::size_t milp_nodes = 0;
  bool hit_node_limit = false;
  bool counterexample_validated = false;
  Tensor counterexample_activation;  ///< numel 0 = none
  bool have_frontier_activation = false;
  Tensor frontier_activation;
};

struct CampaignCheckpoint {
  std::size_t fingerprint = 0;  ///< verify::tail_fingerprint(net, 0)
  std::size_t config_hash = 0;
  std::size_t entry_count = 0;  ///< total entries in the campaign
  std::vector<CampaignEntryRecord> records;  ///< settled entries only
};

/// A counterexample-pool point, in the pool's deterministic
/// (key, order, contribution sequence) order.
struct PoolPointRecord {
  std::string key;
  std::size_t order = 0;
  Tensor point;
};

struct CoverageCheckpoint {
  std::size_t fingerprint = 0;
  std::size_t config_hash = 0;
  /// Completed rounds (resume starts at rounds.size()).
  std::vector<CoverageRound> rounds;
  std::vector<CoverageCellRecord> cells;  ///< every cell in id order
  std::vector<PoolPointRecord> pool;
  std::size_t pool_points_contributed = 0;
};

/// Atomic save (temp file + rename). Throws ContractViolation when the
/// path cannot be written.
void save_campaign_checkpoint(const std::string& path, const CampaignCheckpoint& ckpt);
void save_coverage_checkpoint(const std::string& path, const CoverageCheckpoint& ckpt);

/// Loads `path` into `out`. Returns false when the file does not exist
/// (a resume with no checkpoint runs fresh); throws ContractViolation on
/// a malformed file or a kind/version mismatch. Fingerprint and config
/// hash are the *caller's* contract to validate — the loader only
/// parses them.
bool load_campaign_checkpoint(const std::string& path, CampaignCheckpoint& out);
bool load_coverage_checkpoint(const std::string& path, CoverageCheckpoint& out);

}  // namespace dpv::core
