// Deterministic fan-out of independent jobs over the worker pool, and the
// budgeted two-pass scheduler built on it.
//
// The campaign runner and the scenario-coverage engine share one
// parallelism pattern: a fixed job list, each job writing only to its
// own result slot, claimed off an atomic counter by up to `threads`
// threads of the process-wide pool (src/common/worker_pool.hpp).
// Nothing a job computes may depend on claim order, so results are
// bit-identical across thread counts — the property every determinism
// test in this repo leans on. This header is that pattern, once.
//
// Both also schedule their queries (campaign entries, coverage cells)
// the same way, through BudgetedPass: a first pass with a per-query MILP
// node budget, witness recycling into the CounterexamplePool, then one
// retry pass that hands the decided queries' unused nodes to the
// node-limit UNKNOWNs (grant_unused_nodes). Everything between the two
// passes is a pure function of first-pass results, so the retry keeps
// tables bit-identical across thread counts too.
//
// Fault and deadline behavior: once any job throws, every worker stops
// claiming new jobs (already-running jobs finish), the pass drains, and
// the first-recorded exception is rethrown — wrapped in
// ParallelPassError so the caller learns *which* job failed, not just
// that one did. Results of jobs that completed before the stop are
// intact in their slots; callers that need to salvage them (checkpoint
// writers) track completion per slot and catch ParallelPassError. A
// `run_control` expiry stops claiming the same way but throws nothing:
// the pass returns normally with a subset of slots filled, and the
// caller's completion tracking tells it which.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/run_control.hpp"

namespace dpv::verify {
struct VerificationResult;
}  // namespace dpv::verify

namespace dpv::core {

class CounterexamplePool;

/// First job failure of a parallel pass, with the job's identity. The
/// message is "<label>: <original what()>"; the original exception is
/// available through std::rethrow_if_nested for callers that dispatch
/// on its type.
class ParallelPassError : public std::runtime_error {
 public:
  ParallelPassError(std::size_t job_index, std::string label, const std::string& what_arg)
      : std::runtime_error(label + ": " + what_arg),
        job_index_(job_index),
        label_(std::move(label)) {}

  /// Index of the job (in [0, count)) whose exception was recorded first.
  std::size_t job_index() const { return job_index_; }
  /// Caller-supplied identity of that job (entry index, cell path-hash).
  const std::string& job_label() const { return label_; }

 private:
  std::size_t job_index_;
  std::string label_;
};

struct ParallelPassOptions {
  /// Cooperative cancellation: polled before every claim. Expired =>
  /// workers stop claiming and the pass returns normally with whatever
  /// subset of jobs completed. Not owned.
  const RunControl* run_control = nullptr;
  /// Human-readable identity for job i, used in ParallelPassError
  /// messages ("entry 12", "cell 0x0dd0c0e5"). Null: "job <i>".
  std::function<std::string(std::size_t)> job_label;
};

/// Runs `job(i)` for every i in [0, count) on up to `threads` pool
/// threads (<= 1: inline on the calling thread). Blocks until every
/// started job has finished. If any job throws, all workers stop
/// claiming and the first exception
/// (by record order) is rethrown as ParallelPassError with the failing
/// job's identity and the original exception nested. Jobs must be
/// independent: they may not observe each other's effects or any
/// schedule state.
void run_parallel_pass(std::size_t count, std::size_t threads,
                       const std::function<void(std::size_t)>& job,
                       const ParallelPassOptions& options);

/// One query of a budgeted pass: the caller's item (entry index, cell
/// id) and its MILP node budget (0 keeps the configured one).
struct BudgetedJob {
  std::size_t item = 0;
  std::size_t node_budget = 0;
};

/// How a finished query stands under the node-budget rule.
struct NodeUse {
  std::size_t item = 0;
  bool undecided = false;       ///< ended UNKNOWN
  bool hit_node_limit = false;  ///< ... because its node budget ran out
  std::size_t nodes = 0;        ///< MILP nodes it spent
};

/// The retry pass the node-budget rule asks for.
struct NodeGrants {
  std::size_t returned = 0;          ///< unused nodes of decided queries
  std::size_t granted = 0;           ///< nodes handed to `retries`
  std::vector<BudgetedJob> retries;  ///< budget + grant, in `uses` order
};

/// The node-budget rule: every decided query donates `budget - nodes`,
/// and the node-limit UNKNOWNs split that pool evenly, the remainder
/// going one node each to the earliest. Zero grants are skipped. An
/// UNKNOWN for another reason (an LP iteration limit, the deadline)
/// neither donates — its leftover is failure, not surplus — nor draws,
/// since more nodes would not fix it.
NodeGrants grant_unused_nodes(const std::vector<NodeUse>& uses, std::size_t budget);

/// Node-budget re-allocation counters of one retry pass.
struct NodeBudgetTally {
  std::size_t returned = 0;
  std::size_t granted = 0;
  std::size_t retried = 0;  ///< retry jobs run; 0 when the pass was cut short
  std::size_t rescued = 0;  ///< retried queries decided by their grant
};

/// Pools the discoveries of one finished query under `key`: its
/// validated witness and its B&B frontier near-miss, both prime stage-0
/// attack starts. Called between passes in item order — never from a
/// worker — so snapshots stay schedule-independent. Returns the number of
/// points added.
std::size_t contribute_witnesses(CounterexamplePool& pool, const std::string& key,
                                 std::size_t order, const verify::VerificationResult& v);

/// The scheduler campaigns and coverage rounds share: runs job lists on
/// the worker pool and records, per job, whether it finished and whether
/// it settled (finished without hitting the deadline inside).
class BudgetedPass {
 public:
  /// Runs one query into the caller's slot for `job.item` and returns
  /// that slot's verification result. Called from workers.
  using Query = std::function<const verify::VerificationResult&(const BudgetedJob&)>;

  BudgetedPass(std::size_t threads, const RunControl* run_control,
               std::function<std::string(const BudgetedJob&)> label, Query query);

  /// Runs every job. A worker fault propagates as ParallelPassError
  /// after the pool drains; finished() and settled() still describe the
  /// jobs of this pass, so the caller can salvage them.
  void run(std::vector<BudgetedJob> jobs);

  /// The retry pass: applies grant_unused_nodes to `uses` and runs the
  /// granted jobs. `retried` and `rescued` count only a clean pass.
  NodeBudgetTally retry(const std::vector<NodeUse>& uses, std::size_t budget);

  const std::vector<BudgetedJob>& jobs() const { return jobs_; }
  bool finished(std::size_t j) const { return state_[j] != kPending; }
  bool settled(std::size_t j) const { return state_[j] >= kSettled; }
  /// Every job of the last pass settled.
  bool clean() const;

 private:
  /// Not finished; finished with the deadline hit inside; settled
  /// UNKNOWN; settled with a verdict.
  enum State : char { kPending, kDeadlined, kSettled, kDecided };
  std::size_t threads_;
  const RunControl* run_control_;
  std::function<std::string(const BudgetedJob&)> label_;
  Query query_;
  std::vector<BudgetedJob> jobs_;
  std::vector<char> state_;  ///< per job; written by its worker only
};

}  // namespace dpv::core
