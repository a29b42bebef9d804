#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <iomanip>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "core/checkpoint.hpp"
#include "core/counterexample_pool.hpp"
#include "core/parallel_pass.hpp"
#include "verify/delta.hpp"
#include "verify/encoding_cache.hpp"

namespace dpv::core {

namespace {

/// Which half of a sample a content comparison looks at.
using SamplePart = Tensor train::Sample::*;
constexpr SamplePart kImages = &train::Sample::input;
constexpr SamplePart kLabels = &train::Sample::target;

/// Digest of one half of a dataset: shapes and value bit patterns, one
/// 64-bit word at a time.
std::uint64_t dataset_digest(const train::Dataset& data, SamplePart part) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ data.size();
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
    h = (h << 29) | (h >> 35);
  };
  for (const train::Sample& s : data.samples()) {
    const Tensor& t = s.*part;
    for (const std::size_t d : t.shape().dims()) mix(d);
    for (const double v : t.data()) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

/// Exact (bit-pattern) equality of one half of two datasets.
bool same_content(const train::Dataset& a, const train::Dataset& b, SamplePart part) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Tensor& x = a[i].*part;
    const Tensor& y = b[i].*part;
    if (!(x.shape() == y.shape()) ||
        std::memcmp(x.data().data(), y.data().data(), x.numel() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Which entries share preparation work, decided by dataset content and
/// never by `property_name`. A feature group shares the images (training
/// and validation inputs equal bit for bit): one forward pass to layer l
/// and one S̃ monitor. A characterizer group is a feature group whose
/// phi labels (targets) are equal too: one characterizer fit.
struct PreparationGroups {
  std::vector<std::size_t> feature_group;        ///< per entry
  std::vector<std::size_t> characterizer_group;  ///< per entry
  std::vector<std::uint64_t> digest;             ///< per entry: images + labels
  std::size_t feature_groups = 0;
  std::size_t characterizer_groups = 0;
};

PreparationGroups group_entries(const std::vector<CampaignEntry>& entries) {
  const std::size_t n = entries.size();
  PreparationGroups g;
  g.feature_group.resize(n);
  g.characterizer_group.resize(n);
  g.digest.resize(n);
  std::vector<std::size_t> feature_rep, characterizer_rep;  // first entry of each group
  std::vector<std::uint64_t> image_digest;                  // per feature group
  for (std::size_t i = 0; i < n; ++i) {
    const CampaignEntry& e = entries[i];
    std::size_t f = 0;
    while (f < feature_rep.size() &&
           !(same_content(e.property_train, entries[feature_rep[f]].property_train, kImages) &&
             same_content(e.property_val, entries[feature_rep[f]].property_val, kImages)))
      ++f;
    if (f == feature_rep.size()) {
      feature_rep.push_back(i);
      ConfigHasher h;
      h.add(dataset_digest(e.property_train, kImages));
      h.add(dataset_digest(e.property_val, kImages));
      image_digest.push_back(h.hash());
    }
    std::size_t c = 0;
    while (c < characterizer_rep.size() &&
           !(g.feature_group[characterizer_rep[c]] == f &&
             same_content(e.property_train, entries[characterizer_rep[c]].property_train,
                          kLabels) &&
             same_content(e.property_val, entries[characterizer_rep[c]].property_val, kLabels)))
      ++c;
    if (c == characterizer_rep.size()) characterizer_rep.push_back(i);
    g.feature_group[i] = f;
    g.characterizer_group[i] = c;
    ConfigHasher h;
    h.add(image_digest[f]);
    h.add(dataset_digest(e.property_train, kLabels));
    h.add(dataset_digest(e.property_val, kLabels));
    g.digest[i] = h.hash();
  }
  g.feature_groups = feature_rep.size();
  g.characterizer_groups = characterizer_rep.size();
  return g;
}

/// A value computed once by whichever job asks first; concurrent askers
/// block until it is ready. A throwing computation is recorded and
/// rethrown to every asker, so a failed preparation fails each job that
/// waited on it instead of hanging them.
template <class T>
class SharedOnce {
 public:
  template <class Make>
  const T& get(Make&& make) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!started_) {
      started_ = true;
      lock.unlock();
      std::optional<T> value;
      std::exception_ptr error;
      try {
        value.emplace(make());
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      value_ = std::move(value);
      error_ = error;
      done_ = true;
      ready_.notify_all();
    } else {
      ready_.wait(lock, [this] { return done_; });
    }
    if (error_) std::rethrow_exception(error_);
    return *value_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  bool started_ = false;
  bool done_ = false;
  std::optional<T> value_;
  std::exception_ptr error_;
};

/// Reorders a pass's (entry, budget) jobs so the first job of every
/// characterizer group comes first: workers claim in list order, so the
/// distinct preparations start concurrently and the rest find them
/// ready (or in progress). Stable within both halves. The retry pass
/// skips this: the first pass has normally prepared its groups.
void representatives_first(std::vector<BudgetedJob>& jobs, const PreparationGroups& groups) {
  std::vector<char> seen(groups.characterizer_groups, 0);
  std::vector<char> first(jobs.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    char& s = seen[groups.characterizer_group[jobs[j].item]];
    first[j] = !s;
    s = 1;
  }
  std::vector<BudgetedJob> ordered;
  ordered.reserve(jobs.size());
  for (const bool want : {true, false})
    for (std::size_t j = 0; j < jobs.size(); ++j)
      if (static_cast<bool>(first[j]) == want) ordered.push_back(jobs[j]);
  jobs = std::move(ordered);
}

/// Hash of every semantics-affecting campaign option plus the entry
/// identities (names, dataset digests and risk inequalities) — what a
/// checkpoint must match before its records may be trusted. Thread
/// counts and caching flags are deliberately excluded: they change wall
/// time, never verdicts. The delta-reuse fields are
/// excluded for the same reason — every reuse class is
/// verdict-preserving by construction, so a delta run may resume a cold
/// run's checkpoint and vice versa.
std::size_t campaign_config_hash(const std::vector<CampaignEntry>& entries,
                                 const PreparationGroups& groups,
                                 const WorkflowConfig& config) {
  ConfigHasher h;
  h.add(std::string("campaign"));
  h.add(static_cast<std::uint64_t>(entries.size()));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    h.add(entries[i].property_name);
    h.add(entries[i].risk.name());
    h.add(groups.digest[i]);
    h.add(static_cast<std::uint64_t>(entries[i].risk.inequalities().size()));
    for (const verify::OutputInequality& q : entries[i].risk.inequalities()) {
      h.add(static_cast<std::uint64_t>(q.coeffs.size()));
      for (const double c : q.coeffs) h.add(c);
      h.add(static_cast<std::uint64_t>(q.sense));
      h.add(q.rhs);
    }
  }
  h.add(config.min_separability);
  h.add(static_cast<std::uint64_t>(config.entry_node_budget));
  // The slots of the retired always-on budget re-allocation switch and
  // of the staged-pipeline switch, kept so existing checkpoints resume.
  h.add(true);
  h.add(config.assume_guarantee.verifier.falsify.enabled);
  h.add(config.concretize_witnesses);
  h.add(static_cast<std::uint64_t>(config.characterizer.hidden));
  h.add(config.characterizer.learning_rate);
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.epochs));
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.batch_size));
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.shuffle_seed));
  h.add(static_cast<std::uint64_t>(config.characterizer.init_seed));
  h.add(static_cast<std::uint64_t>(config.assume_guarantee.bounds));
  h.add(config.assume_guarantee.monitor_margin);
  h.add_verifier(config.assume_guarantee.verifier);
  return h.hash();
}

/// The checkpoint view of a settled first-pass result: exactly what the
/// downstream passes read (see CampaignEntryRecord).
CampaignEntryRecord make_entry_record(std::size_t i, const WorkflowReport& wr) {
  const verify::VerificationResult& v = wr.safety.verification;
  CampaignEntryRecord rec;
  rec.index = i;
  rec.property_name = wr.property_name;
  rec.risk_name = wr.risk_name;
  rec.train_confusion = wr.characterizer.train_confusion;
  rec.validation_confusion = wr.characterizer.validation_confusion;
  rec.characterizer_usable = wr.characterizer_usable;
  rec.safety_verdict = wr.safety.verdict;
  rec.bounds_source = wr.safety.bounds_source;
  rec.table_one = wr.table_one.counts;
  rec.verdict = v.verdict;
  rec.decided_by = v.decided_by;
  rec.milp_nodes = v.milp_nodes;
  rec.hit_node_limit = v.hit_node_limit;
  rec.counterexample_validated = v.counterexample_validated;
  if (v.counterexample_validated) rec.counterexample_activation = v.counterexample_activation;
  rec.have_frontier_activation = v.have_frontier_activation;
  if (v.have_frontier_activation) rec.frontier_activation = v.frontier_activation;
  return rec;
}

/// Skeleton WorkflowReport from a restored record: verdict, table and
/// pool-contribution fields are exact; heavyweight artifacts (trained
/// characterizer network, deployed monitor, solver stats) are absent —
/// they belong to the process that actually did the work.
WorkflowReport restore_entry_record(const CampaignEntryRecord& rec) {
  WorkflowReport wr;
  wr.property_name = rec.property_name;
  wr.risk_name = rec.risk_name;
  wr.characterizer.train_confusion = rec.train_confusion;
  wr.characterizer.validation_confusion = rec.validation_confusion;
  wr.characterizer_usable = rec.characterizer_usable;
  wr.safety.verdict = rec.safety_verdict;
  wr.safety.bounds_source = rec.bounds_source;
  wr.table_one.counts = rec.table_one;
  verify::VerificationResult& v = wr.safety.verification;
  v.verdict = rec.verdict;
  v.decided_by = rec.decided_by;
  v.milp_nodes = rec.milp_nodes;
  v.hit_node_limit = rec.hit_node_limit;
  v.counterexample_validated = rec.counterexample_validated;
  v.counterexample_activation = rec.counterexample_activation;
  v.have_frontier_activation = rec.have_frontier_activation;
  v.frontier_activation = rec.frontier_activation;
  return wr;
}

}  // namespace

std::string CampaignReport::format_table() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << std::left << std::setw(28) << "property phi" << " | " << std::setw(34) << "risk psi"
      << " | " << std::setw(9) << "char-acc" << " | " << std::setw(38) << "verdict" << " | "
      << "1-gamma\n";
  out << std::string(28, '-') << "-+-" << std::string(34, '-') << "-+-" << std::string(9, '-')
      << "-+-" << std::string(38, '-') << "-+--------\n";
  for (const WorkflowReport& r : reports) {
    out << std::left << std::setw(28) << r.property_name << " | " << std::setw(34)
        << r.risk_name << " | " << std::setw(9) << r.characterizer.separability() << " | "
        << std::setw(38)
        << (r.deadline_skipped ? std::string("UNKNOWN (deadline-skipped)")
            : r.characterizer_usable
                ? std::string(safety_verdict_name(r.safety.verdict))
                : std::string("N/A (property not characterizable)"))
        << " | " << r.table_one.guarantee() << "\n";
  }
  out << "\ntally: " << safe_count << " safe, " << unsafe_count << " unsafe, "
      << unknown_count << " unknown, " << uncharacterizable_count
      << " not characterizable at layer l";
  if (interrupted)
    out << "\n(run interrupted by deadline: deadline-skipped entries are tallied as unknown;"
        << " resume from the checkpoint to settle them)";
  return out.str();
}

std::string CampaignReport::format_encoding_summary() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(6);
  out << "encoding: " << encode_seconds << "s encode vs " << solve_seconds
      << "s solve across " << reports.size() << " entries";
  if (encoding_cache_hits + encoding_cache_misses > 0) {
    out << "; cache " << encoding_cache_hits << " hits / " << encoding_cache_misses
        << " misses, " << encoding_reused_rows << " rows + " << encoding_reused_variables
        << " variables stamped from frozen bases";
  } else {
    out << "; encoding cache off (every entry re-encoded its tail)";
  }
  if (solver_totals.cuts_added > 0 || solver_totals.cut_rounds > 0) {
    out << "; cuts: " << solver_totals.cuts_added << " added over " << solver_totals.cut_rounds
        << " root rounds, " << milp_nodes << " B&B nodes total";
  }
  // Staged-pipeline funnel: only when the falsify pipeline actually ran
  // (a falsify-off campaign reads exactly as before).
  if (funnel_attack_falsified + funnel_zonotope_proved + funnel_milp_proved +
          funnel_milp_falsified + funnel_unknown >
      0) {
    out << "; funnel: " << funnel_attack_falsified << " attack-falsified / "
        << funnel_zonotope_proved << " zonotope-proved / "
        << funnel_milp_proved + funnel_milp_falsified << " milp-decided ("
        << funnel_milp_proved << " safe, " << funnel_milp_falsified << " unsafe) / "
        << funnel_unknown << " unknown; stage time " << attack_seconds << "s attack + "
        << zonotope_seconds << "s zonotope";
    if (pool_points_contributed > 0 || attack_seeds_tried > 0)
      out << "; recycling: " << pool_points_contributed << " points pooled, "
          << attack_seeds_tried << " seeds tried";
  }
  // Only when re-allocation actually engaged — a pool with no starved
  // entry to spend it on is the budget working, not news.
  if (budget_entries_retried > 0) {
    out << "; budget: " << budget_nodes_returned << " unused nodes pooled, "
        << budget_nodes_granted << " granted over " << budget_entries_retried
        << " retries (" << budget_entries_rescued << " rescued)";
  }
  if (solver_totals.basis_factorizations > 0 || solver_totals.basis_updates > 0) {
    out << "; basis: " << solver_totals.basis_factorizations << " factorizations, "
        << solver_totals.basis_updates << " updates";
    if (solver_totals.basis_updates > 0)
      out << " (avg eta nnz " << solver_totals.avg_eta_nonzeros() << ")";
    if (solver_totals.singular_recoveries > 0)
      out << ", " << solver_totals.singular_recoveries << " singular recoveries";
    if (solver_totals.nonfinite_recoveries > 0)
      out << ", " << solver_totals.nonfinite_recoveries << " nonfinite recoveries";
    out << "; lp time " << solver_totals.factor_seconds << "s factor + "
        << solver_totals.pivot_seconds << "s pivot";
  }
  if (checkpoint_seconds > 0.0 || resume_entries_restored > 0) {
    out << "; checkpoint: " << checkpoint_seconds << "s writing, "
        << resume_entries_restored << " entries restored on resume";
  }
  if (delta_entries_exact + delta_entries_widened + delta_entries_cold > 0) {
    out << "; delta: " << delta_entries_exact << " exact / " << delta_entries_widened
        << " widened / " << delta_entries_cold << " cold trace reuse, "
        << delta_cuts_recycled << " cuts recycled (" << delta_cuts_dropped << " dropped)";
    if (delta_bounds_refreshed > 0)
      out << ", " << delta_bounds_refreshed << " bounds refreshed in "
          << delta_refresh_seconds << "s";
  }
  if (delta_artifacts_saved) out << "; delta artifact bundle saved";
  if (characterizers_trained > 0 || feature_images > 0)
    out << "; preparation: " << characterizers_trained << " characterizers trained, "
        << feature_images << " images forwarded to layer l";
  return out.str();
}

CampaignReport run_campaign(const nn::Network& perception, std::size_t attach_layer,
                            const std::vector<CampaignEntry>& entries,
                            const WorkflowConfig& config) {
  check(!entries.empty(), "run_campaign: no entries");
  const SafetyWorkflow workflow(perception, attach_layer);

  // Per-entry solver budget: an override applied uniformly so one
  // pathological entry cannot starve the rest of the battery.
  WorkflowConfig entry_config = config;
  if (config.entry_node_budget > 0)
    entry_config.assume_guarantee.verifier.milp.max_nodes = config.entry_node_budget;
  // The campaign deadline reaches into every entry's falsifier, B&B and
  // simplex loop: an expiring entry degrades to an explained UNKNOWN
  // instead of blocking the battery.
  entry_config.assume_guarantee.verifier.run_control = config.run_control;

  // One encoding cache shared across the worker pool (unless the caller
  // brought one): entries with the same abstraction reuse the frozen
  // tail and only append their own characterizer and risk rows.
  // Copy-on-freeze, so no mutex — workers copy the immutable base and
  // never mutate it. Tables are bit-identical to fresh encodes.
  std::shared_ptr<verify::EncodingCache>& cache =
      entry_config.assume_guarantee.verifier.encoding_cache;
  if (cache == nullptr) cache = std::make_shared<verify::EncodingCache>();

  // Start-point pool for stage-0 attacks: caller-shared (persists across
  // campaigns) or private to this battery. Contributions happen only
  // between passes, so every job of a pass snapshots the same state.
  std::shared_ptr<CounterexamplePool> pool = config.counterexample_pool;
  if (pool == nullptr) pool = std::make_shared<CounterexamplePool>();
  CampaignReport report;

  // Delta re-certification: load the base version's artifact bundle (if
  // configured and present) and key each entry by its (property, risk)
  // identity — the same pair the checkpoint trusts. A bundle built at a
  // different attach layer shares nothing and is ignored wholesale.
  verify::DeltaArtifacts previous_artifacts;
  bool have_previous = false;
  if (config.delta_base != nullptr && !config.delta_artifacts_path.empty() &&
      verify::load_delta_artifacts(config.delta_artifacts_path, previous_artifacts))
    have_previous = previous_artifacts.attach_layer == attach_layer;
  const auto entry_query_key = [&entries](std::size_t i) {
    ConfigHasher h;
    h.add(entries[i].property_name);
    h.add(entries[i].risk.name());
    const std::size_t key = h.hash();
    // Zero is QueryArtifacts' "empty slot" sentinel; never collide with it.
    return key != 0 ? key : std::size_t{1};
  };
  // One harvest slot per entry: workers fill only their own slot, so no
  // synchronization is needed, and a slot left with query_key == 0 means
  // the entry never reached the MILP (or never ran).
  const bool harvesting = !config.delta_artifacts_out_path.empty();
  std::vector<verify::QueryArtifacts> harvests(harvesting ? entries.size() : 0);

  // Checkpoint identity: the network fingerprint pins the weights, the
  // config hash pins every semantics-affecting option and every entry's
  // data (the content digests the preparation grouping computes, plus
  // the risk inequalities). Only the first pass is recorded — the retry
  // pass is a pure function of first-pass results, so a resumed run
  // re-derives it bit-identically.
  const PreparationGroups groups = group_entries(entries);
  const bool checkpointing = !config.checkpoint_path.empty();
  std::size_t fingerprint = 0;
  std::size_t config_hash = 0;
  if (checkpointing) {
    fingerprint = verify::tail_fingerprint(perception, 0);
    config_hash = campaign_config_hash(entries, groups, config);
  }

  // `settled[i]` marks a first-pass result that is final for resume
  // purposes: the entry completed without a deadline expiring inside it.
  // A deadlined entry is honestly UNKNOWN in *this* report but stays
  // unsettled so a resume run re-verifies it with a fresh budget.
  std::vector<WorkflowReport> results(entries.size());
  std::vector<char> settled(entries.size(), 0);

  if (config.resume && checkpointing) {
    CampaignCheckpoint ckpt;
    if (load_campaign_checkpoint(config.checkpoint_path, ckpt)) {
      check_checkpoint_identity("run_campaign", ckpt.fingerprint, ckpt.config_hash, fingerprint,
                                config_hash);
      check(ckpt.entry_count == entries.size(), "run_campaign: checkpoint entry count mismatch");
      for (const CampaignEntryRecord& rec : ckpt.records) {
        check(rec.index < entries.size(), "run_campaign: checkpoint entry index out of range");
        check(rec.property_name == entries[rec.index].property_name &&
                  rec.risk_name == entries[rec.index].risk.name(),
              "run_campaign: checkpoint entry identity mismatch");
        results[rec.index] = restore_entry_record(rec);
        settled[rec.index] = 1;
      }
      report.resume_entries_restored = ckpt.records.size();
    }
  }

  // Per-property preparation, shared across risks: each feature group
  // forwards its images to layer l and builds S̃ once, the first job of a
  // characterizer group fits h_l^phi on those features, and every other
  // job of the group waits for (or finds) the result. Both passes draw on
  // the same slots, so a budget retry prepares nothing. Only groups with
  // an entry left to run are prepared: a group whose entries were all
  // restored from a checkpoint never is.
  std::vector<SharedOnce<std::shared_ptr<const PropertyFeatures>>> feature_slots(
      groups.feature_groups);
  std::vector<SharedOnce<PreparedProperty>> characterizer_slots(groups.characterizer_groups);
  std::atomic<std::size_t> characterizers_trained{0};
  std::atomic<std::size_t> feature_images{0};
  const auto property_features = [&](std::size_t i) {
    const CampaignEntry& e = entries[i];
    return feature_slots[groups.feature_group[i]].get([&] {
      feature_images += e.property_train.size() + e.property_val.size();
      return workflow.extract_features(e.property_train, e.property_val, entry_config);
    });
  };
  const auto prepared_property = [&](std::size_t i) -> const PreparedProperty& {
    const CampaignEntry& e = entries[i];
    return characterizer_slots[groups.characterizer_group[i]].get([&] {
      if (fault::should_fire("core.prepare_throw"))
        throw std::runtime_error("fault injection: core.prepare_throw");
      std::shared_ptr<const PropertyFeatures> features = property_features(i);
      ++characterizers_trained;
      return workflow.prepare(e.property_train, e.property_val, std::move(features),
                              entry_config);
    });
  };

  // Entries are independent (each workflow run seeds its own RNGs from
  // the config), so they fan out over a worker pool; results land in
  // their entry slot, keeping report ordering deterministic regardless
  // of thread count or completion order. A retried entry's first-pass
  // verification moves to `superseded`, whose costs stay in the totals.
  std::vector<verify::VerificationResult> superseded(entries.size());
  BudgetedPass pass(
      config.campaign_threads, config.run_control,
      [&entries](const BudgetedJob& job) {
        return "entry " + std::to_string(job.item) + " (" + entries[job.item].property_name +
               ")";
      },
      [&](const BudgetedJob& job) -> const verify::VerificationResult& {
        const std::size_t i = job.item;
        WorkflowConfig job_config = entry_config;
        if (job.node_budget > 0) {
          job_config.assume_guarantee.verifier.milp.max_nodes = job.node_budget;
          superseded[i] = std::move(results[i].safety.verification);
        }
        // Per-entry deterministic attack seeding: derived from the
        // configured falsify seed and the entry index (never thread or
        // schedule state), plus recycled start points for this risk.
        verify::FalsifyOptions& falsify = job_config.assume_guarantee.verifier.falsify;
        falsify.seed += 0x9e3779b97f4a7c15ULL * (i + 1);
        falsify.seed_points = pool->snapshot(entries[i].risk.name());
        // Delta reuse in, harvest out. Planning happens inside the
        // assume-guarantee finish step, where the query is fully built.
        AssumeGuaranteeConfig& ag = job_config.assume_guarantee;
        if (have_previous) {
          ag.delta_base = config.delta_base;
          ag.delta_artifacts = &previous_artifacts;
        }
        if (have_previous || harvesting) ag.delta_query_key = entry_query_key(i);
        if (harvesting) ag.delta_harvest = &harvests[i];
        results[i] = workflow.run(entries[i].property_name, prepared_property(i),
                                  entries[i].risk, job_config);
        return results[i].safety.verification;
      });

  const auto write_checkpoint = [&] {
    if (!checkpointing) return;
    const auto t0 = std::chrono::steady_clock::now();
    CampaignCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.config_hash = config_hash;
    ckpt.entry_count = entries.size();
    ckpt.falsify_enabled = config.assume_guarantee.verifier.falsify.enabled;
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (settled[i]) ckpt.records.push_back(make_entry_record(i, results[i]));
    save_campaign_checkpoint(config.checkpoint_path, ckpt);
    report.checkpoint_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  const auto settle_and_checkpoint = [&] {
    for (std::size_t j = 0; j < pass.jobs().size(); ++j)
      if (pass.settled(j)) settled[pass.jobs()[j].item] = 1;
    write_checkpoint();
  };

  std::vector<BudgetedJob> first_pass;
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!settled[i]) first_pass.push_back({i, 0});
  // Features up front, one group at a time, each forwarded over the whole
  // worker pool: inside the group's first job they would hold up every
  // other representative waiting on the slot. A failed extraction stays
  // recorded in its slot and fails, wrapped, each job that needs it.
  std::vector<char> extracted(groups.feature_groups, 0);
  for (const BudgetedJob& job : first_pass) {
    char& done = extracted[groups.feature_group[job.item]];
    if (done) continue;
    done = 1;
    try {
      property_features(job.item);
    } catch (...) {
    }
  }
  representatives_first(first_pass, groups);
  try {
    pass.run(std::move(first_pass));
  } catch (const ParallelPassError&) {
    // A worker died. Salvage every job that did finish cleanly into the
    // checkpoint before propagating — the rerun resumes from there.
    settle_and_checkpoint();
    throw;
  }
  settle_and_checkpoint();

  // Deadline honesty: if anything is left unsettled the run was
  // interrupted. Unclaimed or mid-flight-abandoned entries get a marked
  // UNKNOWN row; entries that *did* run but expired internally keep
  // their own (already honest) UNKNOWN report and are marked too, since
  // a resume run will redo them. The pool contribution, budget retry and
  // their determinism contracts assume complete first-pass results, so
  // an interrupted run skips straight to aggregation.
  const auto skip = [&](std::size_t i) {
    report.interrupted = true;
    results[i].deadline_skipped = true;
    if (results[i].property_name.empty()) {
      results[i].property_name = entries[i].property_name;
      results[i].risk_name = entries[i].risk.name();
    }
  };
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!settled[i]) skip(i);

  // Recycle this pass's discoveries into the pool, in entry order: prime
  // stage-0 starts for the retry pass below and for later campaigns
  // sharing the pool.
  const auto contribute = [&](std::size_t i) {
    report.pool_points_contributed += contribute_witnesses(
        *pool, entries[i].risk.name(), i, results[i].safety.verification);
  };
  if (!report.interrupted)
    for (std::size_t i = 0; i < entries.size(); ++i) contribute(i);

  // Budget re-allocation: the unused nodes of finished entries go to the
  // node-limit UNKNOWN entries in one retry pass. A retry cut short by the
  // deadline marks its unsettled entries and contributes nothing; the
  // resume re-derives the whole retry from the checkpointed first pass.
  if (config.entry_node_budget > 0 && !report.interrupted) {
    std::vector<NodeUse> uses;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const WorkflowReport& r = results[i];
      uses.push_back({i, r.characterizer_usable && r.safety.verdict == SafetyVerdict::kUnknown,
                      r.safety.verification.hit_node_limit, r.safety.verification.milp_nodes});
    }
    const NodeBudgetTally tally = pass.retry(uses, config.entry_node_budget);
    report.budget_nodes_returned = tally.returned;
    report.budget_nodes_granted = tally.granted;
    report.budget_entries_retried = tally.retried;
    report.budget_entries_rescued = tally.rescued;
    const bool clean = pass.clean();
    for (std::size_t j = 0; j < pass.jobs().size(); ++j) {
      if (clean)
        contribute(pass.jobs()[j].item);
      else if (!pass.settled(j))
        skip(pass.jobs()[j].item);
    }
  }
  // Persist the next-generation artifact bundle: chain extended when
  // this run reused a previous bundle, fresh base bundle otherwise.
  // Skipped on an interrupted run — a partial harvest would silently
  // degrade the next version's reuse to cold on the missing entries, so
  // the old bundle (if any) is left in place for the resume run.
  if (harvesting && !report.interrupted) {
    verify::DeltaArtifacts next =
        have_previous ? verify::advance_artifacts(previous_artifacts, perception)
                      : verify::make_base_artifacts(perception, attach_layer);
    for (verify::QueryArtifacts& harvest : harvests)
      if (harvest.query_key != 0) next.upsert(std::move(harvest));
    verify::save_delta_artifacts(config.delta_artifacts_out_path, next);
    report.delta_artifacts_saved = true;
  }

  const verify::EncodingCache::Stats cs = cache->stats();
  report.encoding_cache_hits = cs.hits;
  report.encoding_cache_misses = cs.misses;
  report.encoding_reused_rows = cs.reused_rows;
  report.encoding_reused_variables = cs.reused_variables;
  const auto add_costs = [&report](const verify::VerificationResult& v) {
    report.encode_seconds += v.encode_seconds;
    report.solve_seconds += v.solve_seconds;
    report.attack_seconds += v.attack_seconds;
    report.zonotope_seconds += v.zonotope_seconds;
    report.milp_nodes += v.milp_nodes;
    report.solver_totals.merge(v.solver_stats);
  };
  const bool staged = config.assume_guarantee.verifier.falsify.enabled;
  report.reports.reserve(entries.size());
  for (WorkflowReport& wr : results) {
    const verify::VerificationResult& v = wr.safety.verification;
    add_costs(v);
    report.attack_seeds_tried += v.attack_seeds_tried;
    report.delta_bounds_refreshed += v.refreshed_bounds;
    report.delta_refresh_seconds += v.refresh_seconds;
    if (have_previous) {
      switch (wr.safety.delta_trace) {
        case verify::TraceReuse::kExact:
          ++report.delta_entries_exact;
          break;
        case verify::TraceReuse::kWidened:
          ++report.delta_entries_widened;
          break;
        case verify::TraceReuse::kNone:
          ++report.delta_entries_cold;
          break;
      }
      report.delta_cuts_recycled += v.cuts_recycled;
      report.delta_cuts_dropped += wr.safety.delta_cuts_dropped;
    }
    if (wr.deadline_skipped) {
      // Deadline honesty: an entry the deadline skipped (or interrupted
      // mid-verification) is UNKNOWN, never "uncharacterizable" — we
      // simply did not get to find out.
      ++report.unknown_count;
    } else if (!wr.characterizer_usable) {
      ++report.uncharacterizable_count;
    } else {
      switch (wr.safety.verdict) {
        case SafetyVerdict::kSafeUnconditional:
        case SafetyVerdict::kSafeConditional:
          ++report.safe_count;
          break;
        case SafetyVerdict::kUnsafe:
          ++report.unsafe_count;
          break;
        case SafetyVerdict::kUnknown:
          ++report.unknown_count;
          break;
      }
      // Funnel: which stage settled this entry. Only meaningful when the
      // falsify pipeline ran (all zero otherwise, and the summary line
      // stays silent), except UNKNOWN which we only tally alongside the
      // other funnel buckets. The flag is part of the checkpoint config
      // hash, so restored entries ran under it too.
      if (staged) {
        if (wr.safety.verdict == SafetyVerdict::kUnknown) {
          ++report.funnel_unknown;
        } else {
          switch (v.decided_by) {
            case verify::DecisionStage::kAttack:
              ++report.funnel_attack_falsified;
              break;
            case verify::DecisionStage::kZonotope:
              ++report.funnel_zonotope_proved;
              break;
            case verify::DecisionStage::kMilp:
              if (v.verdict == verify::Verdict::kUnsafe)
                ++report.funnel_milp_falsified;
              else
                ++report.funnel_milp_proved;
              break;
          }
        }
      }
    }
    report.reports.push_back(std::move(wr));
  }
  // First-pass costs of retried entries stay in the totals — the work was
  // spent either way. Their open gap does NOT: the retry supersedes that
  // search, and merge keeps maxima, so a stale gap would survive into the
  // report even after the retry closed it. Entries not retried hold an
  // empty result here.
  for (verify::VerificationResult& v : superseded) {
    v.solver_stats.best_bound_gap = 0.0;
    add_costs(v);
  }
  report.characterizers_trained = characterizers_trained;
  report.feature_images = feature_images;
  return report;
}

}  // namespace dpv::core
