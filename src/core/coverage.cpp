#include "core/coverage.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/parallel_pass.hpp"
#include "monitor/activation_recorder.hpp"
#include "verify/encoding_cache.hpp"
#include "verify/falsifier.hpp"

namespace dpv::core {

namespace {

/// splitmix64-style combiner: deterministic, avalanche-quality hashes
/// from split lineage — the only state cell seeds may derive from.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

constexpr std::uint64_t kRootSalt = 0x0dd0c0e5ULL;
constexpr std::uint64_t kFalsifySalt = 0xfa151fULL;

/// Pool key of a cell: its lineage hash in hex (risk-agnostic — one
/// coverage run has one risk, and siblings share via the parent key).
std::string cell_pool_key(std::uint64_t path_hash) {
  std::ostringstream out;
  out << "coverage:" << std::hex << path_hash;
  return out.str();
}

double relative_volume(const data::ScenarioBox& cell, const data::ScenarioBox& domain) {
  double fraction = 1.0;
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    const double dw = domain.dim(d).width();
    if (dw > 0.0) fraction *= cell.dim(d).width() / dw;
  }
  return fraction;
}

std::string box_to_string(const data::ScenarioBox& box) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    out << data::scenario_dimension_name(d) << "=[" << box.dim(d).lo << ","
        << box.dim(d).hi << "] ";
  }
  out << (box.traffic_adjacent ? "traffic" : "no-traffic");
  return out.str();
}

/// Interval-arithmetic unsatisfiability of one risk inequality over an
/// output box: the static prepass's fallback proof. The zonotope sweep
/// (generator budget) can come out looser than plain interval
/// propagation on the huge boxes static analysis produces, so the
/// prepass checks both — either proof is sound.
bool interval_unsatisfiable(const verify::OutputInequality& ineq, const absint::Box& out) {
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < ineq.coeffs.size() && i < out.size(); ++i) {
    const double c = ineq.coeffs[i];
    if (c >= 0.0) {
      lo += c * out[i].lo;
      hi += c * out[i].hi;
    } else {
      lo += c * out[i].hi;
      hi += c * out[i].lo;
    }
  }
  switch (ineq.sense) {
    case lp::RowSense::kLessEqual:
      return lo > ineq.rhs;
    case lp::RowSense::kGreaterEqual:
      return hi < ineq.rhs;
    case lp::RowSense::kEqual:
      return lo > ineq.rhs || hi < ineq.rhs;
  }
  return false;
}

}  // namespace

const char* cell_status_name(CellStatus status) {
  switch (status) {
    case CellStatus::kPending:
      return "PENDING";
    case CellStatus::kCertified:
      return "CERTIFIED";
    case CellStatus::kUnsafe:
      return "UNSAFE";
    case CellStatus::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

std::uint64_t coverage_cell_seed(std::uint64_t run_seed, std::uint64_t path_hash) {
  return mix64(run_seed, path_hash);
}

std::uint64_t coverage_child_hash(std::uint64_t parent_hash, std::size_t dim,
                                  std::size_t side) {
  return mix64(parent_hash, static_cast<std::uint64_t>(dim * 2 + side + 1));
}

CoverageMap::CoverageMap(const OperationalDomain& domain) : domain_(domain) {
  std::size_t total = 1;
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    check(domain.initial_grid[d] >= 1, "CoverageMap: initial grid must be >= 1 per dim");
    check(domain.box.dim(d).width() > 0.0, "CoverageMap: domain dimension has zero width");
    total *= domain.initial_grid[d];
  }
  // Grid edges are computed once per dimension, so adjacent cells share
  // bit-identical faces and the grid tiles the domain exactly.
  std::array<std::vector<double>, data::ScenarioBox::kDimensions> edges;
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    const absint::Interval& range = domain.box.dim(d);
    const std::size_t n = domain.initial_grid[d];
    edges[d].resize(n + 1);
    edges[d][0] = range.lo;
    edges[d][n] = range.hi;
    for (std::size_t i = 1; i < n; ++i)
      edges[d][i] = range.lo + range.width() * static_cast<double>(i) / static_cast<double>(n);
  }
  cells_.reserve(total);
  std::array<std::size_t, data::ScenarioBox::kDimensions> index = {0, 0, 0, 0};
  for (std::size_t linear = 0; linear < total; ++linear) {
    CoverageCell cell;
    cell.id = cells_.size();
    cell.path_hash = mix64(kRootSalt, static_cast<std::uint64_t>(linear + 1));
    cell.box = domain.box;
    for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d)
      cell.box.dim(d) = absint::Interval(edges[d][index[d]], edges[d][index[d] + 1]);
    cell.volume_fraction = relative_volume(cell.box, domain.box);
    cells_.push_back(std::move(cell));
    // Row-major increment, last dimension fastest.
    for (std::size_t d = data::ScenarioBox::kDimensions; d-- > 0;) {
      if (++index[d] < domain.initial_grid[d]) break;
      index[d] = 0;
    }
  }
}

const CoverageCell& CoverageMap::cell(std::size_t id) const {
  check(id < cells_.size(), "CoverageMap::cell: id out of range");
  return cells_[id];
}

CoverageCell& CoverageMap::cell_mutable(std::size_t id) {
  check(id < cells_.size(), "CoverageMap::cell_mutable: id out of range");
  return cells_[id];
}

std::vector<std::size_t> CoverageMap::leaves() const {
  std::vector<std::size_t> out;
  for (const CoverageCell& c : cells_)
    if (c.is_leaf()) out.push_back(c.id);
  return out;
}

std::vector<std::size_t> CoverageMap::frontier() const {
  std::vector<std::size_t> out;
  for (const CoverageCell& c : cells_)
    if (c.is_leaf() && c.status != CellStatus::kCertified) out.push_back(c.id);
  return out;
}

double CoverageMap::certified_volume_fraction() const {
  double total = 0.0;
  for (const CoverageCell& c : cells_)
    if (c.is_leaf() && c.status == CellStatus::kCertified) total += c.volume_fraction;
  return total;
}

double CoverageMap::certified_unconditional_fraction() const {
  double total = 0.0;
  for (const CoverageCell& c : cells_)
    if (c.is_leaf() && c.status == CellStatus::kCertified &&
        c.verdict == SafetyVerdict::kSafeUnconditional)
      total += c.volume_fraction;
  return total;
}

double CoverageMap::unsafe_volume_fraction() const {
  double total = 0.0;
  for (const CoverageCell& c : cells_)
    if (c.is_leaf() && c.status == CellStatus::kUnsafe) total += c.volume_fraction;
  return total;
}

std::pair<std::size_t, std::size_t> CoverageMap::split_cell(std::size_t id, std::size_t dim) {
  check(id < cells_.size(), "CoverageMap::split_cell: id out of range");
  check(dim < data::ScenarioBox::kDimensions, "CoverageMap::split_cell: dim out of range");
  check(cells_[id].is_leaf(), "CoverageMap::split_cell: cell already split");
  check(cells_[id].status != CellStatus::kCertified,
        "CoverageMap::split_cell: certified cells are never re-split");
  check(cells_[id].box.dim(dim).width() > 0.0,
        "CoverageMap::split_cell: dimension has zero width");

  const auto halves = data::split_scenario_box(cells_[id].box, dim);
  const std::size_t first_child = cells_.size();
  for (std::size_t side = 0; side < 2; ++side) {
    CoverageCell child;
    child.id = first_child + side;
    child.parent = id;
    child.depth = cells_[id].depth + 1;
    child.path_hash = coverage_child_hash(cells_[id].path_hash, dim, side);
    child.box = side == 0 ? halves.first : halves.second;
    child.volume_fraction = relative_volume(child.box, domain_.box);
    // The parent's witness becomes the containing child's first attack
    // candidate (a face-point witness goes to the lower half).
    if (cells_[id].has_counterexample_scenario &&
        data::scenario_in_box(child.box, cells_[id].counterexample_scenario) &&
        (side == 0 ||
         !data::scenario_in_box(halves.first, cells_[id].counterexample_scenario))) {
      child.has_seed_scenario = true;
      child.seed_scenario = cells_[id].counterexample_scenario;
    }
    cells_.push_back(std::move(child));
  }
  cells_[id].split_dim = dim;
  cells_[id].children = {first_child, first_child + 1};
  return {first_child, first_child + 1};
}

std::string CoverageMap::format_map() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << "coverage map: " << cells_.size() << " cells, " << leaves().size() << " leaves, "
      << certified_volume_fraction() * 100.0 << "% certified ("
      << certified_unconditional_fraction() * 100.0 << "% unconditional), "
      << unsafe_volume_fraction() * 100.0 << "% unsafe\n";
  for (const CoverageCell& c : cells_) {
    out << "cell " << c.id << " depth " << c.depth << " "
        << (c.is_leaf() ? "leaf" : "split") << " " << cell_status_name(c.status) << " via "
        << c.decided_by << " vol " << c.volume_fraction * 100.0 << "% " "| "
        << box_to_string(c.box);
    if (!c.is_leaf())
      out << " | split " << data::scenario_dimension_name(c.split_dim) << " -> "
          << c.children[0] << "," << c.children[1];
    out << "\n";
  }
  return out.str();
}

std::size_t choose_split_dimension(const data::ScenarioBox& cell_box,
                                   const data::ScenarioBox& domain_box,
                                   const data::RoadScenario* counterexample) {
  const auto widest_relative = [&]() {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
      const double cw = cell_box.dim(d).width();
      const double dw = domain_box.dim(d).width();
      if (cw <= 0.0 || dw <= 0.0) continue;
      const double score = cw / dw;
      if (score > best_score) {
        best_score = score;
        best = d;
      }
    }
    return best;
  };
  if (counterexample == nullptr) return widest_relative();

  const double values[data::ScenarioBox::kDimensions] = {
      counterexample->curvature, counterexample->lane_offset, counterexample->brightness,
      counterexample->traffic_distance};
  std::size_t best = data::ScenarioBox::kDimensions;  // sentinel: no positive score yet
  double best_score = 0.0;
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    const double cw = cell_box.dim(d).width();
    const double dw = domain_box.dim(d).width();
    if (cw <= 0.0 || dw <= 0.0) continue;
    // Off-centeredness in domain units: splitting the dimension where
    // the witness sits farthest from the cell midpoint carves off the
    // largest witness-free half.
    const double score = std::abs(values[d] - cell_box.dim(d).midpoint()) / dw;
    if (score > best_score) {
      best_score = score;
      best = d;
    }
  }
  // A dead-center witness gives no direction; fall back to bisection.
  if (best == data::ScenarioBox::kDimensions) return widest_relative();
  return best;
}

namespace {

/// Hash of every semantics-affecting coverage option plus the domain and
/// risk identity — what a checkpoint must match before its state may be
/// trusted. Thread count is deliberately excluded (wall time only).
std::size_t coverage_config_hash(const verify::RiskSpec& risk, const OperationalDomain& domain,
                                 const CoverageOptions& options) {
  ConfigHasher h;
  h.add(std::string("coverage"));
  h.add(risk.name());
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    h.add(domain.box.dim(d).lo);
    h.add(domain.box.dim(d).hi);
    h.add(static_cast<std::uint64_t>(domain.initial_grid[d]));
  }
  h.add(domain.box.traffic_adjacent);
  h.add(static_cast<std::uint64_t>(options.render.width));
  h.add(static_cast<std::uint64_t>(options.render.height));
  h.add(options.render.noise_stddev);
  h.add(static_cast<std::uint64_t>(options.samples_per_cell));
  h.add(static_cast<std::uint64_t>(options.seed));
  h.add(static_cast<std::uint64_t>(options.max_rounds));
  h.add(static_cast<std::uint64_t>(options.max_depth));
  h.add(static_cast<std::uint64_t>(options.cell_node_budget));
  // The slots of the retired always-on switches (budget re-allocation,
  // static prepass), of the staged-pipeline switch and of the scenario
  // attack's margin, kept so existing checkpoints resume.
  h.add(true);
  h.add(true);
  h.add(options.verifier.falsify.enabled);
  h.add(options.monitor_margin);
  h.add(static_cast<std::uint64_t>(options.bounds));
  h.add(options.verifier.falsify.require_margin);
  h.add_verifier(options.verifier);
  return h.hash();
}

/// Rebuilds the refinement tree from checkpoint records: replay every
/// split in id order (original splits also happened in ascending parent
/// id order, so child ids come out identical), then overwrite each cell
/// but its empty SafetyCase from its record.
void restore_map_from_records(CoverageMap& map, const std::vector<CoverageCellRecord>& recs) {
  check(recs.size() >= map.cells().size(),
        "run_coverage: checkpoint has fewer cells than the initial grid");
  for (const CoverageCellRecord& rec : recs) {
    if (rec.children[0] == CoverageCell::kNone) continue;
    check(rec.id < map.cells().size(), "run_coverage: checkpoint split parent out of order");
    const auto [lo_child, hi_child] = map.split_cell(rec.id, rec.split_dim);
    check(lo_child == rec.children[0] && hi_child == rec.children[1],
          "run_coverage: checkpoint split replay produced different child ids");
  }
  check(map.cells().size() == recs.size(),
        "run_coverage: checkpoint split replay produced a different cell count");
  for (const CoverageCellRecord& rec : recs) {
    CoverageCell& cell = map.cell_mutable(rec.id);
    check(cell.path_hash == rec.path_hash && cell.parent == rec.parent &&
              cell.depth == rec.depth,
          "run_coverage: checkpoint cell lineage mismatch after split replay");
    static_cast<CoverageCellRecord&>(cell) = rec;
  }
}

/// One cell's processing result, applied to its cell by the worker that
/// computed it. The cell's verdict and status follow from `safety`.
struct CellOutcome {
  const char* decided_by = "-";
  bool has_cex_scenario = false;
  data::RoadScenario cex_scenario;
  SafetyCase safety;
};

}  // namespace

CoverageReport run_coverage(const nn::Network& network, std::size_t attach_layer,
                            const verify::RiskSpec& risk, const OperationalDomain& domain,
                            const CoverageOptions& options) {
  check(options.bounds != BoundsSource::kStaticAnalysis,
        "run_coverage: bounds must be a monitor source (the static prepass plays the "
        "static-analysis role)");
  check(options.samples_per_cell > 0, "run_coverage: samples_per_cell must be positive");
  check(options.max_rounds > 0, "run_coverage: max_rounds must be positive");
  check(!risk.empty(), "run_coverage: empty risk condition");
  const auto wall_start = std::chrono::steady_clock::now();

  CoverageReport report;
  report.map = CoverageMap(domain);
  CoverageMap& map = report.map;

  std::shared_ptr<CounterexamplePool> pool = options.counterexample_pool;
  if (pool == nullptr) pool = std::make_shared<CounterexamplePool>();

  // Base assume-guarantee config; the per-cell monitor is built by the
  // engine with its margin baked in.
  AssumeGuaranteeConfig ag_base;
  ag_base.bounds = options.bounds;
  ag_base.verifier = options.verifier;
  if (options.cell_node_budget > 0)
    ag_base.verifier.milp.max_nodes = options.cell_node_budget;
  // The run deadline reaches into every cell's falsifier, B&B and
  // simplex loop: an expiring cell degrades to an explained UNKNOWN.
  ag_base.verifier.run_control = options.run_control;

  // The decision ladder for one cell. Everything it reads (cell fields,
  // pool snapshots, options) is frozen for the duration of a pass, so
  // outcomes are a pure function of (cell, node_budget).
  const auto process_cell = [&](const CoverageCell& cell,
                                std::size_t node_budget) -> CellOutcome {
    CellOutcome out;
    const std::uint64_t cell_seed = coverage_cell_seed(options.seed, cell.path_hash);
    Rng rng(cell_seed);
    std::vector<data::RoadScenario> scenarios;
    scenarios.reserve(options.samples_per_cell);
    for (std::size_t i = 0; i < options.samples_per_cell; ++i)
      scenarios.push_back(data::sample_scenario_in(cell.box, rng));
    std::vector<Tensor> images;
    images.reserve(scenarios.size());
    for (const data::RoadScenario& s : scenarios)
      images.push_back(data::render_road_image(s, options.render));

    // Stage 1: scenario attack. A concrete in-cell render whose real
    // output enters the risk region (with the attack's require_margin
    // slack) settles UNSAFE with scenario-space provenance — the
    // strongest possible counterexample, no abstraction involved.
    const auto try_scenario = [&](const data::RoadScenario& s, const Tensor& image) {
      const Tensor output = network.forward(image);
      if (risk.min_margin(output) < options.verifier.falsify.require_margin) return false;
      out.decided_by = "scenario-attack";
      out.has_cex_scenario = true;
      out.cex_scenario = s;
      out.safety.verdict = SafetyVerdict::kUnsafe;
      out.safety.bounds_source = options.bounds;
      out.safety.verification.verdict = verify::Verdict::kUnsafe;
      out.safety.verification.decided_by = verify::DecisionStage::kAttack;
      out.safety.verification.counterexample_activation =
          network.forward_prefix(image, attach_layer);
      out.safety.verification.counterexample_output = output;
      out.safety.verification.counterexample_validated = true;
      return true;
    };
    if (cell.has_seed_scenario &&
        try_scenario(cell.seed_scenario,
                     data::render_road_image(cell.seed_scenario, options.render)))
      return out;
    for (std::size_t i = 0; i < scenarios.size(); ++i)
      if (try_scenario(scenarios[i], images[i])) return out;

    // Stage 2: static prepass. The interval renderer's pixel hull,
    // propagated through the prefix, feeds the zonotope bound proof; a
    // proof certifies the cell *unconditionally* (no monitor needed —
    // kStaticAnalysis semantics under the bounded-noise assumption).
    const data::ImageBounds image_bounds =
        data::render_road_image_bounds(cell.box, options.render, options.render_bounds);
    absint::Box pixel_box;
    pixel_box.reserve(image_bounds.lo.numel());
    for (std::size_t i = 0; i < image_bounds.lo.numel(); ++i)
      pixel_box.emplace_back(image_bounds.lo[i], image_bounds.hi[i]);
    verify::VerificationQuery query;
    query.network = &network;
    query.attach_layer = attach_layer;
    query.characterizer = nullptr;
    query.risk = risk;
    query.input_box = absint::propagate_box_range(network, pixel_box, 0, attach_layer);
    bool static_safe = verify::prove_by_bounds(query, options.verifier.falsify).proved_safe;
    if (!static_safe) {
      const absint::Box output_box = absint::propagate_box_range(
          network, query.input_box, attach_layer, network.layer_count());
      for (const verify::OutputInequality& ineq : risk.inequalities())
        if (interval_unsatisfiable(ineq, output_box)) {
          static_safe = true;
          break;
        }
    }
    if (static_safe) {
      out.decided_by = "static-bounds";
      out.safety.verdict = SafetyVerdict::kSafeUnconditional;
      out.safety.bounds_source = BoundsSource::kStaticAnalysis;
      out.safety.verification.verdict = verify::Verdict::kSafe;
      out.safety.verification.decided_by = verify::DecisionStage::kZonotope;
      return out;
    }

    // Stage 3: monitor query. The cell's own renders induce S̃; the
    // cell IS the input property, so no characterizer is attached and a
    // SAFE verdict is conditional on deploying exactly this monitor.
    const std::vector<Tensor> activations =
        monitor::record_activations(network, attach_layer, images);
    const monitor::DiffMonitor mon =
        monitor::DiffMonitor::from_activations(activations, options.monitor_margin);
    AssumeGuaranteeConfig ag = ag_base;
    if (node_budget > 0) ag.verifier.milp.max_nodes = node_budget;
    // Attack seed and recycled starts derive from lineage + between-pass
    // pool state only — never the schedule.
    ag.verifier.falsify.seed = mix64(cell_seed, kFalsifySalt);
    std::vector<Tensor> seeds = pool->snapshot(cell_pool_key(cell.path_hash));
    if (cell.parent != CoverageCell::kNone) {
      const std::vector<Tensor> inherited =
          pool->snapshot(cell_pool_key(map.cell(cell.parent).path_hash));
      seeds.insert(seeds.end(), inherited.begin(), inherited.end());
    }
    ag.verifier.falsify.seed_points = std::move(seeds);
    const AssumeGuaranteeVerifier verifier(ag);
    out.safety = verifier.verify_with_monitor(network, attach_layer, nullptr, risk, mon);
    if (out.safety.verdict != SafetyVerdict::kUnknown)
      out.decided_by = verify::decision_stage_name(out.safety.verification.decided_by);
    return out;
  };

  // Checkpoint identity and resume. The resume restores the map (split
  // replay), the completed round stats and the pool, then continues at
  // the first unfinished round: everything downstream is a pure function
  // of that state, so the final tables match an uninterrupted run bit
  // for bit.
  const bool checkpointing = !options.checkpoint_path.empty();
  std::size_t fingerprint = 0;
  std::size_t config_hash = 0;
  if (checkpointing) {
    fingerprint = verify::tail_fingerprint(network, 0);
    config_hash = coverage_config_hash(risk, domain, options);
  }
  std::size_t round = 0;
  if (options.resume && checkpointing) {
    CoverageCheckpoint ckpt;
    if (load_coverage_checkpoint(options.checkpoint_path, ckpt)) {
      check_checkpoint_identity("run_coverage", ckpt.fingerprint, ckpt.config_hash, fingerprint,
                                config_hash);
      restore_map_from_records(map, ckpt.cells);
      report.rounds = ckpt.rounds;
      for (const PoolPointRecord& p : ckpt.pool) pool->contribute(p.key, p.order, p.point);
      report.pool_points_contributed = ckpt.pool_points_contributed;
      report.resume_rounds_restored = ckpt.rounds.size();
      round = ckpt.rounds.size();
    }
  }

  const auto write_checkpoint = [&] {
    if (!checkpointing) return;
    const auto t0 = std::chrono::steady_clock::now();
    CoverageCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.config_hash = config_hash;
    ckpt.rounds = report.rounds;
    ckpt.cells.assign(map.cells().begin(), map.cells().end());  // sliced to records
    for (const CounterexamplePool::Entry& e : pool->export_entries())
      ckpt.pool.push_back({e.key, e.order, e.point});
    ckpt.pool_points_contributed = report.pool_points_contributed;
    save_coverage_checkpoint(options.checkpoint_path, ckpt);
    report.checkpoint_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  // One job per cell. The worker applies the outcome to its own cell,
  // which no other job of the pass reads (they read their own cell and
  // its already-split parent).
  BudgetedPass pass(
      options.threads, options.run_control,
      [](const BudgetedJob& job) {
        return "cell " + std::to_string(job.item) +
               (job.node_budget > 0 ? " (budget retry)" : "");
      },
      [&](const BudgetedJob& job) -> const verify::VerificationResult& {
        CoverageCell& cell = map.cell_mutable(job.item);
        CellOutcome out = process_cell(cell, job.node_budget);
        cell.verdict = out.safety.verdict;
        cell.status = cell.verdict == SafetyVerdict::kUnsafe    ? CellStatus::kUnsafe
                      : cell.verdict == SafetyVerdict::kUnknown ? CellStatus::kUnknown
                                                                : CellStatus::kCertified;
        cell.decided_by = out.decided_by;
        cell.decided_round = round;
        cell.has_counterexample_scenario = out.has_cex_scenario;
        cell.counterexample_scenario = out.cex_scenario;
        cell.safety = std::move(out.safety);
        return cell.safety.verification;
      });

  // The work list: unprocessed leaves. On a fresh run that is every
  // grid cell; on a resume it is exactly the interrupted round's pending
  // children (decided UNSAFE/UNKNOWN leaves are settled, not pending).
  std::vector<std::size_t> pending;
  for (const CoverageCell& c : map.cells())
    if (c.is_leaf() && c.status == CellStatus::kPending) pending.push_back(c.id);
  for (; round < options.max_rounds && !pending.empty(); ++round) {
    // Round-start checkpoint: the resume point for a round cut short by
    // a deadline or killed by a fault mid-pass.
    write_checkpoint();
    const auto round_start = std::chrono::steady_clock::now();
    CoverageRound stats;
    stats.round = round;
    stats.cells_processed = pending.size();

    // A pass is cut when the deadline expired or any job did not settle;
    // only an uncut pass may become settled (checkpointed) state. A cut
    // pass still reports what it computed (deadline honesty) — finished
    // cells keep their outcomes, the rest stay pending — but contributes
    // nothing, retries nothing and refines nothing: the resume redoes
    // the whole round from the checkpoint written above.
    const auto finish_pass = [&] {
      for (std::size_t j = 0; j < pass.jobs().size(); ++j)
        if (pass.finished(j))
          stats.milp_nodes += map.cell(pass.jobs()[j].item).safety.verification.milp_nodes;
      report.interrupted = run_expired(options.run_control) || !pass.clean();
      if (report.interrupted) return;
      // Between-pass pool contribution, in cell-id order (the pool's
      // determinism contract).
      for (const BudgetedJob& job : pass.jobs()) {
        const CoverageCell& cell = map.cell(job.item);
        report.pool_points_contributed += contribute_witnesses(
            *pool, cell_pool_key(cell.path_hash), cell.id, cell.safety.verification);
      }
    };
    std::vector<BudgetedJob> jobs;
    for (const std::size_t id : pending) jobs.push_back({id, 0});
    pass.run(std::move(jobs));
    finish_pass();
    if (!report.interrupted && options.cell_node_budget > 0) {
      std::vector<NodeUse> uses;
      for (const std::size_t id : pending) {
        const CoverageCell& cell = map.cell(id);
        const verify::VerificationResult& v = cell.safety.verification;
        uses.push_back({id, cell.status == CellStatus::kUnknown, v.hit_node_limit, v.milp_nodes});
      }
      const NodeBudgetTally tally = pass.retry(uses, options.cell_node_budget);
      stats.budget_nodes_returned = tally.returned;
      stats.budget_nodes_granted = tally.granted;
      if (!pass.jobs().empty()) finish_pass();
      if (!report.interrupted) {
        stats.budget_cells_retried = tally.retried;
        stats.budget_cells_rescued = tally.rescued;
      }
    }

    for (const std::size_t id : pending) {
      const CoverageCell& cell = map.cell(id);
      stats.max_depth = std::max(stats.max_depth, cell.depth);
      switch (cell.status) {
        case CellStatus::kCertified:
          ++stats.cells_certified;
          break;
        case CellStatus::kUnsafe:
          ++stats.cells_unsafe;
          break;
        default:
          ++stats.cells_unknown;
          break;
      }
    }

    // Counterexample-guided refinement: UNSAFE and UNKNOWN cells split
    // for the next round (certified cells never do). No splits on the
    // final round — children would never be processed — and none after
    // a deadline interrupt (the resume redoes this round and decides
    // the splits itself).
    std::vector<std::size_t> next_pending;
    if (!report.interrupted && round + 1 < options.max_rounds) {
      for (const std::size_t id : pending) {
        const CoverageCell& cell = map.cell(id);
        if (cell.status != CellStatus::kUnsafe && cell.status != CellStatus::kUnknown)
          continue;
        if (cell.depth >= options.max_depth) continue;
        const data::RoadScenario* cex =
            cell.has_counterexample_scenario ? &cell.counterexample_scenario : nullptr;
        const std::size_t dim = choose_split_dimension(cell.box, domain.box, cex);
        const auto [lo_child, hi_child] = map.split_cell(id, dim);
        next_pending.push_back(lo_child);
        next_pending.push_back(hi_child);
        ++stats.cells_split;
      }
    }

    stats.certified_volume_fraction = map.certified_volume_fraction();
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - round_start)
            .count();
    report.rounds.push_back(stats);
    if (report.interrupted) break;
    pending = std::move(next_pending);
  }
  // Final checkpoint so a resume of a completed (or cleanly exhausted)
  // run is a no-op instead of redoing the last round. An interrupted
  // run keeps its round-start checkpoint as the resume point.
  if (!report.interrupted) write_checkpoint();

  // Decision funnel over every decided cell (split parents included —
  // their decisions drove the refinement even though leaves carry the
  // final volume accounting).
  for (const CoverageCell& cell : map.cells()) {
    if (cell.status == CellStatus::kCertified || cell.status == CellStatus::kUnsafe) {
      const std::string stage = cell.decided_by;
      if (stage == "scenario-attack") {
        ++report.scenario_falsified;
      } else if (stage == "static-bounds") {
        ++report.static_proved;
      } else if (stage == "attack") {
        ++report.attack_falsified;
      } else if (stage == "zonotope") {
        ++report.zonotope_proved;
      } else if (stage == "milp") {
        if (cell.status == CellStatus::kUnsafe)
          ++report.milp_falsified;
        else
          ++report.milp_proved;
      }
    }
    if (cell.is_leaf() &&
        (cell.status == CellStatus::kUnknown || cell.status == CellStatus::kPending))
      ++report.unknown_cells;
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return report;
}

std::string CoverageReport::format_table() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  const std::vector<std::size_t> leaf_ids = map.leaves();
  std::size_t max_depth = 0;
  for (const CoverageCell& c : map.cells()) max_depth = std::max(max_depth, c.depth);
  out << "coverage: " << map.certified_volume_fraction() * 100.0 << "% certified ("
      << map.certified_unconditional_fraction() * 100.0 << "% unconditional), "
      << map.unsafe_volume_fraction() * 100.0 << "% unsafe over " << leaf_ids.size()
      << " leaves / " << map.cells().size() << " cells, max depth " << max_depth << "\n";
  out << std::left << std::setw(6) << "round" << " | " << std::setw(9) << "processed"
      << " | " << std::setw(9) << "certified" << " | " << std::setw(6) << "unsafe" << " | "
      << std::setw(7) << "unknown" << " | " << std::setw(5) << "split" << " | "
      << "certified-vol\n";
  out << std::string(6, '-') << "-+-" << std::string(9, '-') << "-+-" << std::string(9, '-')
      << "-+-" << std::string(6, '-') << "-+-" << std::string(7, '-') << "-+-"
      << std::string(5, '-') << "-+--------------\n";
  for (const CoverageRound& r : rounds) {
    out << std::left << std::setw(6) << r.round << " | " << std::setw(9)
        << r.cells_processed << " | " << std::setw(9) << r.cells_certified << " | "
        << std::setw(6) << r.cells_unsafe << " | " << std::setw(7) << r.cells_unknown
        << " | " << std::setw(5) << r.cells_split << " | "
        << r.certified_volume_fraction * 100.0 << "%\n";
  }
  out << "funnel: " << scenario_falsified << " scenario-falsified / " << static_proved
      << " static-proved / " << attack_falsified << " attack-falsified / "
      << zonotope_proved << " zonotope-proved / " << milp_proved << " milp-proved / "
      << milp_falsified << " milp-falsified / " << unknown_cells << " unknown\n";
  if (interrupted)
    out << "(run interrupted by deadline: pending cells are tallied as unknown; resume from"
        << " the checkpoint to continue refinement)\n";
  const std::vector<std::size_t> frontier_ids = map.frontier();
  if (frontier_ids.empty()) {
    out << "frontier: empty (whole domain decided)";
  } else {
    out << "frontier (" << frontier_ids.size() << " uncertified leaves):";
    for (const std::size_t id : frontier_ids) {
      const CoverageCell& c = map.cell(id);
      out << "\n  cell " << c.id << " " << cell_status_name(c.status) << " via "
          << c.decided_by << " vol " << c.volume_fraction * 100.0 << "% | "
          << box_to_string(c.box);
    }
  }
  return out.str();
}

std::string CoverageReport::format_summary() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  out << "coverage run: " << wall_seconds << "s over " << rounds.size() << " rounds";
  std::size_t milp_nodes = 0, returned = 0, granted = 0, retried = 0, rescued = 0;
  for (const CoverageRound& r : rounds) {
    milp_nodes += r.milp_nodes;
    returned += r.budget_nodes_returned;
    granted += r.budget_nodes_granted;
    retried += r.budget_cells_retried;
    rescued += r.budget_cells_rescued;
  }
  out << "; " << milp_nodes << " milp nodes";
  if (retried > 0)
    out << "; budget: " << returned << " unused nodes pooled, " << granted
        << " granted over " << retried << " retries (" << rescued << " rescued)";
  if (pool_points_contributed > 0)
    out << "; recycling: " << pool_points_contributed << " points pooled";
  if (checkpoint_seconds > 0.0 || resume_rounds_restored > 0)
    out << "; checkpoint: " << checkpoint_seconds << "s writing, " << resume_rounds_restored
        << " rounds restored on resume";
  out << "; per-round wall:";
  for (const CoverageRound& r : rounds) out << " " << r.wall_seconds << "s";
  return out.str();
}

}  // namespace dpv::core
