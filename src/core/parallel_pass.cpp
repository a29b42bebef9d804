#include "core/parallel_pass.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/worker_pool.hpp"
#include "core/counterexample_pool.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {

namespace {

/// Builds the ParallelPassError for the recorded first failure,
/// nesting the original exception (std::throw_with_nested needs a
/// throw-site, hence the rethrow dance).
[[noreturn]] void rethrow_wrapped(std::size_t job_index, const ParallelPassOptions& options,
                                  const std::exception_ptr& error) {
  std::string label = options.job_label ? options.job_label(job_index)
                                        : "job " + std::to_string(job_index);
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  try {
    std::rethrow_exception(error);
  } catch (...) {
    std::throw_with_nested(ParallelPassError(job_index, std::move(label), what));
  }
}

}  // namespace

void run_parallel_pass(std::size_t count, std::size_t threads,
                       const std::function<void(std::size_t)>& job,
                       const ParallelPassOptions& options) {
  std::atomic<std::size_t> next_job{0};
  // One-way stop latch: set on the first failure so *every* worker —
  // not just the throwing one — stops claiming new jobs and the pass
  // drains promptly. Completed slots stay valid either way.
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_job = 0;
  const std::size_t workers = std::min(std::max<std::size_t>(threads, 1), count);
  parallel_for(workers, workers, [&](std::size_t) {
    while (true) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (run_expired(options.run_control)) return;
      const std::size_t j = next_job.fetch_add(1);
      if (j >= count) return;
      try {
        if (fault::should_fire("core.worker_throw"))
          throw std::runtime_error("fault injection: core.worker_throw");
        job(j);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
          error_job = j;
        }
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (error) rethrow_wrapped(error_job, options, error);
}

NodeGrants grant_unused_nodes(const std::vector<NodeUse>& uses, std::size_t budget) {
  NodeGrants grants;
  std::vector<std::size_t> starved;
  for (const NodeUse& u : uses) {
    if (u.undecided && u.hit_node_limit)
      starved.push_back(u.item);
    else if (!u.undecided && u.nodes < budget)
      grants.returned += budget - u.nodes;
  }
  if (starved.empty()) return grants;
  const std::size_t share = grants.returned / starved.size();
  const std::size_t remainder = grants.returned % starved.size();
  for (std::size_t k = 0; k < starved.size(); ++k) {
    const std::size_t grant = share + (k < remainder ? 1 : 0);
    if (grant == 0) continue;
    grants.retries.push_back({starved[k], budget + grant});
    grants.granted += grant;
  }
  return grants;
}

std::size_t contribute_witnesses(CounterexamplePool& pool, const std::string& key,
                                 std::size_t order, const verify::VerificationResult& v) {
  std::size_t added = 0;
  if (v.verdict == verify::Verdict::kUnsafe && v.counterexample_validated &&
      v.counterexample_activation.numel() > 0) {
    pool.contribute(key, order, v.counterexample_activation);
    ++added;
  }
  if (v.have_frontier_activation) {
    pool.contribute(key, order, v.frontier_activation);
    ++added;
  }
  return added;
}

BudgetedPass::BudgetedPass(std::size_t threads, const RunControl* run_control,
                           std::function<std::string(const BudgetedJob&)> label, Query query)
    : threads_(threads),
      run_control_(run_control),
      label_(std::move(label)),
      query_(std::move(query)) {}

void BudgetedPass::run(std::vector<BudgetedJob> jobs) {
  jobs_ = std::move(jobs);
  state_.assign(jobs_.size(), kPending);
  ParallelPassOptions options;
  options.run_control = run_control_;
  options.job_label = [this](std::size_t j) { return label_(jobs_[j]); };
  // A job's state is its worker's last write; the pass join gives the
  // happens-before, so afterwards (even after a deadline cut or a fault)
  // the caller knows exactly which slots hold finished results.
  run_parallel_pass(
      jobs_.size(), threads_,
      [this](std::size_t j) {
        const verify::VerificationResult& v = query_(jobs_[j]);
        state_[j] = v.hit_deadline                          ? kDeadlined
                    : v.verdict == verify::Verdict::kUnknown ? kSettled
                                                             : kDecided;
      },
      options);
}

bool BudgetedPass::clean() const {
  return std::all_of(state_.begin(), state_.end(), [](char s) { return s >= kSettled; });
}

NodeBudgetTally BudgetedPass::retry(const std::vector<NodeUse>& uses, std::size_t budget) {
  NodeGrants grants = grant_unused_nodes(uses, budget);
  run(std::move(grants.retries));
  if (!clean()) return {grants.returned, grants.granted, 0, 0};
  return {grants.returned, grants.granted, jobs_.size(),
          static_cast<std::size_t>(std::count(state_.begin(), state_.end(), kDecided))};
}

}  // namespace dpv::core
