// Scenario-coverage engine: compositional verification over an
// operational-domain grid.
//
// The paper verifies one (property, risk) query at a time; a safety
// argument for deployment needs the *whole operational design domain*
// covered. This engine decomposes the ODD (a ScenarioBox, see
// src/data/scenario.hpp) into cells, renders each cell's parameter box
// into network input bounds, and runs a per-cell assume-guarantee query
// through the staged falsify-then-prove pipeline. The result is a
// CoverageMap: how much of the domain's volume is certified (and under
// what conditionality), where the counterexamples live, and a frontier
// of cells still undecided.
//
// Per-cell decision ladder, cheapest first:
//   1. scenario attack — concrete renders of sampled in-cell scenarios
//      (plus a counterexample inherited from the parent cell, if any)
//      are forward-passed through the full network; an output inside the
//      risk region settles UNSAFE with *scenario-space* provenance.
//   2. static prepass — the interval renderer's pixel bounds are
//      propagated through the prefix and the zonotope bound proof runs
//      on the raw hull: a proof here is SAFE *unconditionally*
//      (kStaticAnalysis semantics; usually only decisive for risks far
//      from the cell's reachable outputs — the paper's footnote 1).
//   3. monitor query — a per-cell DiffMonitor S̃ built from the cell's
//      own renders feeds the assume-guarantee verifier (attack →
//      zonotope → MILP); SAFE is conditional on deploying that monitor.
//
// Refinement: UNSAFE and UNKNOWN cells split on the dimension implicated
// by their counterexample scenario (bisection of the relatively widest
// dimension when there is none), children re-enter the next round, and a
// campaign-style node-budget re-allocator retries starved UNKNOWN cells
// with the round's unused MILP nodes. SAFE cells are never re-split.
//
// Determinism contract: every per-cell input (sample RNG, attack seed,
// recycled start points) derives from the cell's split-lineage path hash
// and between-round pool state — never from thread scheduling — so the
// map and report tables are bit-identical across thread counts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/run_control.hpp"
#include "core/assume_guarantee.hpp"
#include "core/counterexample_pool.hpp"
#include "data/renderer.hpp"
#include "data/scenario.hpp"
#include "verify/risk_spec.hpp"

namespace dpv::core {

/// The domain to cover: the scenario box plus the initial grid
/// resolution per dimension (curvature, lane offset, brightness,
/// traffic distance). The default grid leans on curvature — the
/// dimension the affordances actually depend on.
struct OperationalDomain {
  data::ScenarioBox box = data::scenario_domain();
  std::array<std::size_t, data::ScenarioBox::kDimensions> initial_grid = {4, 2, 1, 1};
};

enum class CellStatus {
  kPending,    ///< not yet processed (fresh grid cell or fresh child)
  kCertified,  ///< SAFE — unconditional or monitor-conditional
  kUnsafe,     ///< counterexample found (scenario- or activation-space)
  kUnknown,    ///< undecided within the cell's resource budget
};

const char* cell_status_name(CellStatus status);

/// A cell of the refinement tree minus its verification artifact: what
/// a checkpoint stores. Nothing a later round reads lives in the
/// SafetyCase (witness scenarios are copied into child seeds at split
/// time, layer-l points live in the pool), so cells restored from
/// records carry an empty one and the resumed tables still match bit
/// for bit.
struct CoverageCellRecord {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::size_t id = 0;
  std::size_t parent = kNone;
  std::size_t depth = 0;  ///< splits below the initial grid
  /// Split-lineage hash: a pure function of the cell's position in the
  /// refinement tree (root grid index, then (dim, side) per split).
  /// Seeds, attack RNG and pool keys all derive from this, so a cell
  /// covering the same box is processed identically in any run.
  std::uint64_t path_hash = 0;
  data::ScenarioBox box;
  /// Cell volume as a fraction of the domain volume.
  double volume_fraction = 0.0;

  CellStatus status = CellStatus::kPending;
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  /// Which ladder stage settled the cell: "scenario-attack",
  /// "static-bounds", "attack", "zonotope" or "milp"; "-" while pending.
  std::string decided_by = "-";
  std::size_t decided_round = 0;

  /// Scenario-space counterexample provenance (set when the scenario
  /// attack decided; the in-cell parameters whose render enters psi).
  bool has_counterexample_scenario = false;
  data::RoadScenario counterexample_scenario;
  /// Candidate inherited from the parent's counterexample on split (the
  /// child whose box contains it); tried first by the scenario attack.
  bool has_seed_scenario = false;
  data::RoadScenario seed_scenario;

  /// Refinement links (kNone / empty while a leaf).
  std::size_t split_dim = kNone;
  std::array<std::size_t, 2> children = {kNone, kNone};
};

struct CoverageCell : CoverageCellRecord {
  /// Full verification artifact of the deciding query (monitor to
  /// deploy, pipeline trace, counterexample activation, solver stats).
  SafetyCase safety;

  bool is_leaf() const { return children[0] == kNone; }
};

/// The refinement tree over the domain. Leaves tile the domain box
/// exactly (split faces are shared, grid edges are computed once), so
/// the volume fractions of any leaf set partition 1.
class CoverageMap {
 public:
  CoverageMap() = default;
  explicit CoverageMap(const OperationalDomain& domain);

  const OperationalDomain& domain() const { return domain_; }
  const std::vector<CoverageCell>& cells() const { return cells_; }
  const CoverageCell& cell(std::size_t id) const;
  CoverageCell& cell_mutable(std::size_t id);

  /// Ids of all leaves, in id order.
  std::vector<std::size_t> leaves() const;
  /// Ids of uncertified leaves (the frontier a refinement round works).
  std::vector<std::size_t> frontier() const;

  /// Domain volume fraction of certified leaves (any SAFE flavour),
  /// of unconditionally-certified leaves, and of UNSAFE leaves.
  double certified_volume_fraction() const;
  double certified_unconditional_fraction() const;
  double unsafe_volume_fraction() const;

  /// Splits leaf `id` along `dim`, appending two children (lower half
  /// first) that inherit the parent's counterexample scenario as a seed
  /// (the containing child). Throws ContractViolation when the cell is
  /// not a leaf, the dimension is out of range, or — the invariant the
  /// coverage argument rests on — the cell is already certified.
  std::pair<std::size_t, std::size_t> split_cell(std::size_t id, std::size_t dim);

  /// One line per cell in id order (status, verdict, stage, volume,
  /// box). Deterministic: bit-identical across thread counts.
  std::string format_map() const;

 private:
  OperationalDomain domain_;
  std::vector<CoverageCell> cells_;
};

struct CoverageOptions {
  data::RenderConfig render;
  /// Scenarios sampled per cell: attack candidates and the support of
  /// the cell's monitor S̃.
  std::size_t samples_per_cell = 24;
  std::uint64_t seed = 0xc0e7a9e5u;
  /// Refinement rounds (round 0 processes the initial grid).
  std::size_t max_rounds = 4;
  /// Maximum splits below the initial grid.
  std::size_t max_depth = 6;
  /// Worker threads per round pass (<= 1: serial).
  std::size_t threads = 1;
  /// Per-cell MILP node budget (0 = verifier default, no re-allocation).
  /// Each round retries its starved UNKNOWN cells with the round's
  /// unused nodes (core::grant_unused_nodes).
  std::size_t cell_node_budget = 4000;
  /// Interval renderer of the static prepass (stage 2 of the ladder).
  data::RenderBoundsOptions render_bounds;
  /// Fractional margin on the per-cell monitor hulls.
  double monitor_margin = 0.05;
  /// Abstraction for the monitor query (kStaticAnalysis is not valid
  /// here — the static prepass covers that role).
  BoundsSource bounds = BoundsSource::kMonitorBoxDiff;
  /// The monitor query's verifier: the staged pipeline (PGD attack +
  /// zonotope) runs in front of the MILP unless `falsify.enabled` is
  /// cleared; the scenario attack (stage 1) always runs and settles
  /// UNSAFE only with `falsify.require_margin` slack.
  verify::TailVerifierOptions verifier = staged_verifier_options();
  /// Start-point pool shared with other campaigns (private when null).
  /// With `checkpoint_path` + `resume`, keep the pool private (the
  /// default): a resume replays the checkpointed pool state, which
  /// would duplicate points in a pool shared across runs.
  std::shared_ptr<CounterexamplePool> counterexample_pool;
  /// Run-wide cooperative cancellation: threaded into every cell's
  /// verifier and polled before each cell claim. On expiry the round is
  /// cut short — outcomes already computed are reported honestly, the
  /// report is marked `interrupted`, and refinement stops. Not owned.
  const RunControl* run_control = nullptr;
  /// Checkpoint file (empty = no checkpointing): the full map, round
  /// stats and pool state are written atomically at the start of every
  /// refinement round, so a killed or deadline-cut run resumes from the
  /// last round boundary without re-verifying settled cells.
  std::string checkpoint_path;
  /// Load `checkpoint_path` (when it exists) and continue from the
  /// round it froze. The file must match this run (network fingerprint
  /// + config hash) or run_coverage throws ContractViolation. A resumed
  /// run reproduces the uninterrupted run's map and tables
  /// bit-identically.
  bool resume = false;
};

/// Per-round accounting (perf numbers only in wall_seconds; everything
/// else is deterministic). Checkpoints do not keep wall_seconds:
/// restored rounds report 0 s.
struct CoverageRound {
  std::size_t round = 0;
  std::size_t cells_processed = 0;
  std::size_t cells_certified = 0;
  std::size_t cells_unsafe = 0;
  std::size_t cells_unknown = 0;
  std::size_t cells_split = 0;
  std::size_t max_depth = 0;  ///< deepest cell processed this round
  /// Cumulative certified fraction after this round.
  double certified_volume_fraction = 0.0;
  std::size_t milp_nodes = 0;
  std::size_t budget_nodes_returned = 0;
  std::size_t budget_nodes_granted = 0;
  std::size_t budget_cells_retried = 0;
  std::size_t budget_cells_rescued = 0;
  double wall_seconds = 0.0;
};

struct CoverageReport {
  CoverageMap map;
  std::vector<CoverageRound> rounds;

  /// Decision funnel over all decided cells (leaves and split parents).
  std::size_t scenario_falsified = 0;
  std::size_t static_proved = 0;
  std::size_t attack_falsified = 0;
  std::size_t zonotope_proved = 0;
  std::size_t milp_proved = 0;
  std::size_t milp_falsified = 0;
  std::size_t unknown_cells = 0;  ///< undecided leaves at the end

  std::size_t pool_points_contributed = 0;
  double wall_seconds = 0.0;

  /// Deadline accounting: `interrupted` is set when the run-control
  /// deadline cut a round short (cells processed before the cut keep
  /// their honest outcomes; the rest stay pending/unknown). A resume
  /// restarts from the interrupted round's start checkpoint.
  bool interrupted = false;
  std::size_t resume_rounds_restored = 0;  ///< completed rounds loaded on resume
  double checkpoint_seconds = 0.0;         ///< wall time writing checkpoints

  /// Headline + per-round table + uncertified frontier. Deterministic:
  /// bit-identical across thread counts and falsify modes for cells
  /// decided in both (perf numbers live in format_summary).
  std::string format_table() const;
  /// Wall time, MILP nodes, budget re-allocation and pool accounting.
  std::string format_summary() const;
};

/// The dimension a refining split should bisect: with a counterexample
/// scenario, the dimension where it sits farthest off the cell's center
/// (normalized by the domain widths — splitting there moves one child
/// away from the witness fastest); otherwise the relatively widest
/// dimension. Ties break toward the lowest index.
std::size_t choose_split_dimension(const data::ScenarioBox& cell_box,
                                   const data::ScenarioBox& domain_box,
                                   const data::RoadScenario* counterexample);

/// The sample-RNG seed of a cell: mix of the run seed and the cell's
/// path hash. Exposed so soundness tests can regenerate exactly the
/// scenarios a cell was built from (the engine draws samples_per_cell
/// scenarios via sample_scenario_in before any other use of the RNG).
std::uint64_t coverage_cell_seed(std::uint64_t run_seed, std::uint64_t path_hash);

/// Path hash of a child created by splitting `parent_hash` along `dim`,
/// `side` 0 = lower half. Exposed for cross-run cell matching in tests.
std::uint64_t coverage_child_hash(std::uint64_t parent_hash, std::size_t dim,
                                  std::size_t side);

/// Runs the coverage engine: grid → rounds of (scenario attack → static
/// prepass → monitor query) → counterexample-guided refinement.
CoverageReport run_coverage(const nn::Network& network, std::size_t attach_layer,
                            const verify::RiskSpec& risk, const OperationalDomain& domain,
                            const CoverageOptions& options);

}  // namespace dpv::core
