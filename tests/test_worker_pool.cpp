// Tests of the process-wide worker pool (src/common/worker_pool.hpp) and
// of the schedulers built on it: every index runs once, exceptions reach
// the caller, nested calls cannot deadlock, branch and bound asked for
// more workers than the pool has still ends with the serial verdict, and
// run_parallel_pass keeps its fault wrapping.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "core/parallel_pass.hpp"
#include "milp/branch_and_bound.hpp"

namespace dpv {
namespace {

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  const std::size_t width = pool_width();
  ASSERT_GE(width, 1u);
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, width, 10 * width}) {
    for (const std::size_t max_threads : {std::size_t{1}, width, 4 * width}) {
      std::vector<std::atomic<int>> hits(count);
      parallel_for(count, max_threads, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count << ", max_threads "
                                     << max_threads;
    }
  }
}

TEST(WorkerPool, ExceptionReachesTheCallerAndThePoolStaysUsable) {
  const std::size_t width = pool_width();
  try {
    parallel_for(10 * width, width, [](std::size_t i) {
      if (i == 7) throw std::runtime_error("index 7 failed");
    });
    ADD_FAILURE() << "expected the exception of index 7";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "index 7 failed");
  }
  std::vector<std::atomic<int>> hits(10 * width);
  parallel_for(hits.size(), width, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkerPool, NestedCallCompletesWhileEveryWorkerIsBusy) {
  // Every outer index holds its thread until all of them have started
  // (or a second has passed), so the inner calls find no free helper and
  // must run on their own callers.
  const std::size_t width = pool_width();
  std::atomic<std::size_t> started{0};
  std::vector<long> sums(width, 0);
  parallel_for(width, width, [&](std::size_t outer) {
    started.fetch_add(1);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (started.load() < width && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    std::vector<long> inner(100, 0);
    parallel_for(inner.size(), width,
                 [&](std::size_t i) { inner[i] = static_cast<long>(outer * 1000 + i); });
    for (const long v : inner) sums[outer] += v;
  });
  for (std::size_t outer = 0; outer < width; ++outer)
    EXPECT_EQ(sums[outer], static_cast<long>(outer * 1000 * 100 + 99 * 100 / 2)) << outer;
}

/// max c.x over binaries with two knapsack rows: branching is needed.
milp::MilpProblem knapsack(Rng& rng, std::size_t n) {
  milp::MilpProblem p;
  std::vector<lp::LinearTerm> weight_a, weight_b, objective;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t v = p.add_variable(milp::VarType::kBinary, 0.0, 1.0);
    weight_a.push_back({v, rng.uniform(1.0, 5.0)});
    weight_b.push_back({v, rng.uniform(1.0, 5.0)});
    objective.push_back({v, rng.uniform(1.0, 4.0)});
  }
  p.add_row(weight_a, lp::RowSense::kLessEqual, 1.5 * static_cast<double>(n));
  p.add_row(weight_b, lp::RowSense::kLessEqual, 1.2 * static_cast<double>(n));
  p.set_objective(objective, lp::Objective::kMaximize);
  return p;
}

TEST(WorkerPool, BranchAndBoundWiderThanThePoolKeepsTheSerialVerdict) {
  // Workers the pool cannot run at once start after the search ends and
  // must see it finished rather than wait for nodes forever.
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    const milp::MilpProblem p = knapsack(rng, 14);
    milp::BranchAndBoundOptions serial;
    const milp::MilpResult one = milp::BranchAndBoundSolver(serial).solve(p);
    ASSERT_EQ(one.status, milp::MilpStatus::kOptimal) << seed;
    ASSERT_GT(one.nodes_explored, 1u) << seed;
    milp::BranchAndBoundOptions wide = serial;
    wide.threads = 3 * pool_width() + 1;
    const milp::MilpResult many = milp::BranchAndBoundSolver(wide).solve(p);
    EXPECT_EQ(many.status, one.status) << seed;
    EXPECT_NEAR(many.objective, one.objective, 1e-6) << seed;
  }
}

TEST(WorkerPool, ParallelPassFaultStillThrowsParallelPassError) {
  fault::disarm_all();
  fault::arm("core.worker_throw", 3);
  std::vector<std::atomic<int>> ran(40);
  try {
    core::run_parallel_pass(ran.size(), pool_width(),
                            [&](std::size_t j) { ran[j].fetch_add(1); }, {});
    ADD_FAILURE() << "expected ParallelPassError";
  } catch (const core::ParallelPassError& e) {
    EXPECT_NE(std::string(e.what()).find("core.worker_throw"), std::string::npos) << e.what();
    EXPECT_LT(e.job_index(), ran.size());
    EXPECT_EQ(ran[e.job_index()].load(), 0) << "the failing job must not have run";
  }
  EXPECT_EQ(fault::fires("core.worker_throw"), 1u);
  fault::disarm_all();
  for (const std::atomic<int>& r : ran) EXPECT_LE(r.load(), 1);
}

}  // namespace
}  // namespace dpv
