// Fault-injection harness tests: probe scheduling semantics, and one
// recovery test per armed probe in the catalog — the contract is that an
// injected fault never crashes the process and never flips a verdict; at
// worst the answer degrades to an explained UNKNOWN.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/parallel_pass.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

/// Every test leaves the global harness clean, whatever happens inside.
class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------
// Harness semantics.

TEST_F(FaultInjectTest, DisarmedProbesNeverFire) {
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fault::should_fire("test.probe"));
  EXPECT_EQ(fault::fires("test.probe"), 0u);
}

TEST_F(FaultInjectTest, FireAtSchedulesAreExactAndOneBased) {
  fault::arm("test.probe", 3, 2);  // fire on evaluations 3 and 4
  EXPECT_FALSE(fault::should_fire("test.probe"));
  EXPECT_FALSE(fault::should_fire("test.probe"));
  EXPECT_TRUE(fault::should_fire("test.probe"));
  EXPECT_TRUE(fault::should_fire("test.probe"));
  EXPECT_FALSE(fault::should_fire("test.probe"));
  EXPECT_EQ(fault::hits("test.probe"), 5u);
  EXPECT_EQ(fault::fires("test.probe"), 2u);
}

TEST_F(FaultInjectTest, ArmingOneProbeDoesNotArmAnother) {
  fault::arm("test.probe", 1);
  EXPECT_FALSE(fault::should_fire("test.other"));
  EXPECT_TRUE(fault::should_fire("test.probe"));
}

TEST_F(FaultInjectTest, RearmingReplacesTheSchedule) {
  fault::arm("test.probe", 1);
  EXPECT_TRUE(fault::should_fire("test.probe"));
  fault::arm("test.probe", 2);  // replaces + resets counters
  EXPECT_EQ(fault::hits("test.probe"), 0u);
  EXPECT_FALSE(fault::should_fire("test.probe"));
  EXPECT_TRUE(fault::should_fire("test.probe"));
}

TEST_F(FaultInjectTest, SpecParsing) {
  EXPECT_TRUE(fault::arm_from_spec("test.a:2,test.b:1:3"));
  EXPECT_FALSE(fault::should_fire("test.a"));
  EXPECT_TRUE(fault::should_fire("test.a"));
  EXPECT_TRUE(fault::should_fire("test.b"));
  EXPECT_TRUE(fault::should_fire("test.b"));
  EXPECT_TRUE(fault::should_fire("test.b"));
  EXPECT_FALSE(fault::should_fire("test.b"));

  EXPECT_TRUE(fault::arm_from_spec(""));  // empty spec arms nothing
  EXPECT_FALSE(fault::arm_from_spec("no-colon"));
  EXPECT_FALSE(fault::arm_from_spec("probe:notanumber"));
}

// ---------------------------------------------------------------------
// LP probes: the solver must recover and still produce the right answer.

lp::LpProblem textbook_lp() {
  lp::LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, lp::RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, lp::RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, lp::RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, lp::Objective::kMaximize);
  return p;
}

TEST_F(FaultInjectTest, SingularRefactorizationRecoversToTheOptimum) {
  // A tiny LP solves in a handful of pivots and never reaches the
  // periodic refactorization, so the singular probe is chained behind a
  // non-finite FTRAN: the recovery refactorizes, the refactorization
  // "discovers" a singular basis, and the solver crashes back to the
  // all-logical basis — a two-deep fault cascade that still ends at the
  // true optimum.
  fault::arm("lp.ftran_nonfinite", 1);
  fault::arm("lp.refactor_singular", 1);
  lp::RevisedSimplex solver;
  solver.load(textbook_lp());
  const lp::LpSolution s = solver.solve();
  EXPECT_GE(fault::fires("lp.refactor_singular"), 1u);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_GE(solver.factor_stats().singular_recoveries, 1u);
  EXPECT_GE(solver.factor_stats().nonfinite_recoveries, 1u);
}

TEST_F(FaultInjectTest, NonfiniteFtranRecoversToTheOptimum) {
  fault::arm("lp.ftran_nonfinite", 1);
  lp::RevisedSimplex solver;
  solver.load(textbook_lp());
  const lp::LpSolution s = solver.solve();
  EXPECT_GE(fault::fires("lp.ftran_nonfinite"), 1u);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_GE(solver.factor_stats().nonfinite_recoveries, 1u);
}

TEST_F(FaultInjectTest, NonfiniteBtranRecoversToTheOptimum) {
  fault::arm("lp.btran_nonfinite", 1);
  lp::RevisedSimplex solver;
  solver.load(textbook_lp());
  const lp::LpSolution s = solver.solve();
  EXPECT_GE(fault::fires("lp.btran_nonfinite"), 1u);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_GE(solver.factor_stats().nonfinite_recoveries, 1u);
}

TEST_F(FaultInjectTest, RepeatedNonfiniteFaultsNeverFlipAVerdict) {
  // Drive the probe hard (every FTRAN for a stretch): the solver may
  // burn recoveries, but whatever status it returns must be honest —
  // the one acceptable degradation is "no verdict", never a wrong one.
  fault::arm("lp.ftran_nonfinite", 1, 6);
  lp::RevisedSimplex solver;
  solver.load(textbook_lp());
  const lp::LpSolution s = solver.solve();
  if (s.status == lp::SolveStatus::kOptimal) {
    EXPECT_NEAR(s.objective, 36.0, 1e-6);
  }
  EXPECT_NE(s.status, lp::SolveStatus::kUnbounded);
}

TEST_F(FaultInjectTest, SingularRefactorizationDuringWarmRestartsKeepsOptima) {
  // An OBBT-style sequence (min x_j, max x_j, tighten, next j) on one
  // loaded solver: enough primal pivots to reach periodic
  // refactorizations, three of which are made to "discover" a singular
  // basis. Each crash to the all-logical basis hands the LP to the dual
  // simplex, and every optimum must still match the dense oracle.
  Rng rng(4242);
  const std::size_t n = 30;
  lp::LpProblem p;
  std::vector<double> point(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.add_variable(rng.uniform(-3.0, -0.5), rng.uniform(0.5, 3.0));
    point[i] = rng.uniform(-0.3, 0.3);
  }
  for (std::size_t r = 0; r < 40; ++r) {
    std::vector<lp::LinearTerm> terms;
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.8) continue;
      const double a = rng.uniform(-2.0, 2.0);
      terms.push_back({c, a});
      activity += a * point[c];
    }
    if (!terms.empty())
      p.add_row(terms, lp::RowSense::kLessEqual, activity + rng.uniform(0.0, 0.5));
  }
  fault::arm("lp.refactor_singular", 1, 3);
  lp::RevisedSimplex solver;
  solver.load(p);
  for (std::size_t j = 0; j < n; ++j) {
    double lo = p.lower_bound(j), hi = p.upper_bound(j);
    for (const lp::Objective direction : {lp::Objective::kMinimize, lp::Objective::kMaximize}) {
      p.set_objective({{j, 1.0}}, direction);
      const lp::LpSolution oracle = lp::SimplexSolver().solve(p);
      solver.set_objective({{j, 1.0}}, direction);
      const lp::LpSolution s = solver.reoptimize();
      ASSERT_EQ(oracle.status, lp::SolveStatus::kOptimal);
      ASSERT_EQ(s.status, lp::SolveStatus::kOptimal) << "var " << j;
      EXPECT_NEAR(s.objective, oracle.objective, 1e-7) << "var " << j;
      if (direction == lp::Objective::kMinimize)
        lo = std::max(lo, oracle.objective);
      else
        hi = std::min(hi, oracle.objective);
    }
    if (lo > hi) lo = hi;
    p.set_bounds(j, lo, hi);
    solver.set_bounds(j, lo, hi);
  }
  EXPECT_EQ(fault::fires("lp.refactor_singular"), 3u);
  EXPECT_GE(solver.factor_stats().singular_recoveries, 3u);
}

// ---------------------------------------------------------------------
// Verify probe: allocation failure while encoding degrades the query.

TEST_F(FaultInjectTest, EncodeAllocationFailureDegradesToExplainedUnknown) {
  Rng rng(77);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 8);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{8}));
  auto d2 = std::make_unique<nn::Dense>(8, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, -1.0, 1.0);
  q.risk.output_at_least(0, 1, 0.0);

  fault::arm("verify.encode_alloc", 1);
  const verify::VerificationResult r = verify::TailVerifier().verify(q);
  EXPECT_EQ(fault::fires("verify.encode_alloc"), 1u);
  EXPECT_EQ(r.verdict, verify::Verdict::kUnknown);
  EXPECT_NE(r.note.find("encoding allocation failure"), std::string::npos) << r.note;

  // Recovery is clean: the identical verifier call now succeeds.
  fault::disarm_all();
  const verify::VerificationResult retry = verify::TailVerifier().verify(q);
  EXPECT_NE(retry.verdict, verify::Verdict::kUnknown);
}

// ---------------------------------------------------------------------
// Core probe: a throwing worker drains the pool and names its job.

TEST_F(FaultInjectTest, WorkerThrowSurfacesAsParallelPassErrorWithIdentity) {
  std::vector<int> done(16, 0);
  core::ParallelPassOptions options;
  options.job_label = [](std::size_t j) { return "job " + std::to_string(j); };
  fault::arm("core.worker_throw", 5);
  try {
    core::run_parallel_pass(
        done.size(), 4, [&](std::size_t j) { done[j] = 1; }, options);
    FAIL() << "expected ParallelPassError";
  } catch (const core::ParallelPassError& e) {
    // The wrapper carries which job died and the caller's label for it.
    EXPECT_LT(e.job_index(), done.size());
    EXPECT_EQ(e.job_label(), "job " + std::to_string(e.job_index()));
    EXPECT_NE(std::string(e.what()).find("core.worker_throw"), std::string::npos);
    EXPECT_EQ(done[e.job_index()], 0);  // the dead job never completed
    // The original exception is preserved underneath.
    bool nested_seen = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::runtime_error& inner) {
      nested_seen = true;
      EXPECT_NE(std::string(inner.what()).find("core.worker_throw"), std::string::npos);
    }
    EXPECT_TRUE(nested_seen);
  }
}

TEST_F(FaultInjectTest, WorkerThrowStopsClaimingButFinishedWorkStands) {
  // Serial pass, fault on job 3 (1-based eval): jobs 0..1 complete, job
  // 2 dies, jobs 3+ are never claimed — a deterministic partial pass.
  std::vector<int> done(8, 0);
  fault::arm("core.worker_throw", 3);
  EXPECT_THROW(core::run_parallel_pass(done.size(), 1, [&](std::size_t j) { done[j] = 1; }, {}),
               core::ParallelPassError);
  EXPECT_EQ(done[0], 1);
  EXPECT_EQ(done[1], 1);
  for (std::size_t j = 2; j < done.size(); ++j) EXPECT_EQ(done[j], 0) << j;
}

TEST_F(FaultInjectTest, DeadlineExpiryDrainsThePoolWithoutAnError) {
  // An expired run control is not a fault: workers simply stop claiming
  // and the pass returns with whatever subset completed.
  RunControl rc;
  rc.cancel();
  core::ParallelPassOptions options;
  options.run_control = &rc;
  std::vector<int> done(8, 0);
  EXPECT_NO_THROW(core::run_parallel_pass(done.size(), 2,
                                          [&](std::size_t j) { done[j] = 1; }, options));
  for (const int d : done) EXPECT_EQ(d, 0);
}

}  // namespace
}  // namespace dpv
