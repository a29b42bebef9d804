// Simplex solver unit tests: known optima, infeasibility, degeneracy,
// equality handling, bound handling, and randomized feasibility probes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"

namespace dpv::lp {
namespace {

constexpr double kTol = 1e-6;

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6) -> 36.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, Objective::kMaximize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 6.0, kTol);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3. Optimum (7, 3) -> 23.
  LpProblem p;
  const std::size_t x = p.add_variable(2.0, 100.0, "x");
  const std::size_t y = p.add_variable(3.0, 100.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 10.0);
  p.set_objective({{x, 2.0}, {y, 3.0}}, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 23.0, kTol);
  EXPECT_NEAR(s.values[x], 7.0, kTol);
  EXPECT_NEAR(s.values[y], 3.0, kTol);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + y s.t. x + 2y = 8, x - y = 2. Unique point (4, 2) -> 6.
  LpProblem p;
  const std::size_t x = p.add_variable(-50.0, 50.0, "x");
  const std::size_t y = p.add_variable(-50.0, 50.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 2.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 4.0, kTol);
  EXPECT_NEAR(s.values[y], 2.0, kTol);
  EXPECT_NEAR(s.objective, 6.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  p.add_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  const LpSolution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibilityViaEqualities) {
  LpProblem p;
  const std::size_t x = p.add_variable(-5.0, 5.0, "x");
  const std::size_t y = p.add_variable(-5.0, 5.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 3.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  const LpSolution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Simplex, NegativeLowerBoundsAreHandled) {
  // min x + y with x in [-3, 5], y in [-2, 4], x + y >= -4. Optimum -4 on
  // the constraint line (bounds allow -5, the row cuts it).
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0, 5.0, "x");
  const std::size_t y = p.add_variable(-2.0, 4.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, -4.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, kTol);
}

TEST(Simplex, PureBoundsProblem) {
  // No rows at all: optimum sits on the box corner.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.5, 2.5, "x");
  const std::size_t y = p.add_variable(0.5, 3.0, "y");
  p.set_objective({{x, 1.0}, {y, -1.0}}, Objective::kMinimize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], -1.5, kTol);
  EXPECT_NEAR(s.values[y], 3.0, kTol);
}

TEST(Simplex, FixedVariablesActAsConstants) {
  LpProblem p;
  const std::size_t x = p.add_variable(2.0, 2.0, "x");  // fixed
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 6.0);
  p.set_objective({{y, 1.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 4.0, kTol);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-flavoured degeneracy: several redundant rows through the
  // same vertex.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kLessEqual, 8.0);
  p.add_row({{x, 3.0}, {y, 3.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.set_objective({{x, 1.0}, {y, 2.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, kTol);
}

TEST(Simplex, RedundantEqualityRowsAreDropped) {
  // The duplicated equality makes the phase-1 basis singular; the solver
  // must drop the redundant row rather than fail.
  LpProblem p;
  const std::size_t x = p.add_variable(-10.0, 10.0, "x");
  const std::size_t y = p.add_variable(-10.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.set_objective({{x, 1.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 10.0, kTol);
  EXPECT_NEAR(s.values[y], -6.0, kTol);
}

TEST(Simplex, RejectsInfiniteBounds) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(0.0, std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(Simplex, RejectsInvertedBounds) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(1.0, 0.0), ContractViolation);
}

// Property sweep: random box-bounded LPs with a known interior point.
// The solver must (a) declare them feasible-optimal and (b) return a
// point satisfying all rows and bounds.
class SimplexRandomFeasible : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomFeasible, OptimumRespectsAllConstraints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 10));

  LpProblem p;
  std::vector<double> interior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = rng.uniform(0.5, 5.0);
    p.add_variable(lo, hi);
    interior[i] = 0.5 * (lo + hi);
  }
  std::vector<std::vector<double>> rows(m, std::vector<double>(n));
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      rows[r][c] = rng.uniform(-2.0, 2.0);
      activity += rows[r][c] * interior[c];
    }
    // Slack the row so the interior point stays feasible.
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n; ++c) terms.push_back({c, rows[r][c]});
    p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.1, 2.0));
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c) objective.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_GE(s.values[c], p.lower_bound(c) - kTol);
    EXPECT_LE(s.values[c], p.upper_bound(c) + kTol);
  }
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) activity += rows[r][c] * s.values[c];
    EXPECT_LE(activity, p.rows()[r].rhs + 1e-5);
  }
  // The optimum must not beat the interior point by less than it should:
  // sanity check that it is at least as good as a feasible point we know.
  double interior_obj = 0.0;
  for (std::size_t c = 0; c < n; ++c) interior_obj += objective[c].coeff * interior[c];
  EXPECT_LE(s.objective, interior_obj + kTol);

  // The revised simplex must reproduce the dense-tableau optimum.
  RevisedSimplex revised;
  revised.load(p);
  const LpSolution rs = revised.solve();
  ASSERT_EQ(rs.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(rs.objective, s.objective, kTol) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexRandomFeasible, ::testing::Range(0, 25));

// Pivot rows over +-1 coefficients cancel to exactly zero and are hit
// again by later rows. Each column must still take its reduced-cost step
// once per dual pivot: a column listed twice takes it twice, and the
// dual loop then stops at a vertex that is not optimal. Cold solves and
// branch-and-bound style warm resolves must match the dense oracle.
class DualPivotRowCancellation : public ::testing::TestWithParam<int> {};

TEST_P(DualPivotRowCancellation, CancellingRowsMatchDenseOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(6, 14));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(6, 14));

  LpProblem p;
  std::vector<double> interior(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.add_variable(-static_cast<double>(rng.uniform_int(1, 4)),
                   static_cast<double>(rng.uniform_int(1, 4)));
    interior[i] = static_cast<double>(rng.uniform_int(-1, 1)) * 0.5;
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<LinearTerm> terms;
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.25) continue;
      const double a = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
      terms.push_back({c, a});
      activity += a * interior[c];
    }
    if (terms.empty()) continue;
    const double slack = static_cast<double>(rng.uniform_int(0, 2));
    if (rng.uniform(0.0, 1.0) < 0.5)
      p.add_row(terms, RowSense::kGreaterEqual, activity - slack);
    else
      p.add_row(terms, RowSense::kLessEqual, activity + slack);
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c)
    objective.push_back({c, static_cast<double>(rng.uniform_int(-3, 3))});
  p.set_objective(objective, Objective::kMinimize);

  RevisedSimplex revised;
  revised.load(p);
  const LpSolution cold = revised.solve();
  const LpSolution oracle = SimplexSolver().solve(p);
  ASSERT_EQ(oracle.status, SolveStatus::kOptimal) << "seed " << GetParam();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(cold.objective, oracle.objective, 1e-7) << "seed " << GetParam();

  // Branch-and-bound pattern: halve one box, warm-resolve from the
  // previous optimal basis.
  for (std::size_t j = 0; j < n; ++j) {
    const SimplexBasis basis = revised.capture_basis();
    const double mid = 0.5 * (p.lower_bound(j) + p.upper_bound(j));
    const double lo = (j % 2 == 0) ? mid : p.lower_bound(j);
    const double hi = (j % 2 == 0) ? p.upper_bound(j) : mid;
    p.set_bounds(j, lo, hi);
    revised.set_bounds(j, lo, hi);
    const LpSolution warm = revised.resolve(basis);
    const LpSolution reference = SimplexSolver().solve(p);
    ASSERT_EQ(warm.status, reference.status) << "seed " << GetParam() << " var " << j;
    if (reference.status != SolveStatus::kOptimal) break;
    EXPECT_NEAR(warm.objective, reference.objective, 1e-7)
        << "seed " << GetParam() << " var " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, DualPivotRowCancellation, ::testing::Range(0, 60));

// Warm restart after an objective change (RevisedSimplex::set_objective
// + reoptimize), in the OBBT pattern: min x_j, max x_j, tighten x_j's
// box to what the two LPs proved, then on to x_{j+1} — all on one
// loaded solver. Every objective must match a cold dense-tableau solve
// of the same LP.
class WarmObjectiveRestart : public ::testing::TestWithParam<int> {};

TEST_P(WarmObjectiveRestart, ObbtSequenceMatchesDenseOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 9));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));

  LpProblem p;
  std::vector<double> interior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = rng.uniform(0.5, 5.0);
    p.add_variable(lo, hi);
    interior[i] = rng.uniform(0.25 * lo, 0.25 * hi);
  }
  // Rows of every sense through a slack around a known feasible point.
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<LinearTerm> terms;
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.3) continue;
      const double a = rng.uniform(-2.0, 2.0);
      terms.push_back({c, a});
      activity += a * interior[c];
    }
    if (terms.empty()) continue;
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.15)
      p.add_row(terms, RowSense::kEqual, activity);
    else if (pick < 0.55)
      p.add_row(terms, RowSense::kGreaterEqual, activity - rng.uniform(0.0, 1.5));
    else
      p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.0, 1.5));
  }

  RevisedSimplex revised;
  revised.load(p);
  for (std::size_t j = 0; j < n; ++j) {
    double lo = p.lower_bound(j), hi = p.upper_bound(j);
    for (const Objective direction : {Objective::kMinimize, Objective::kMaximize}) {
      p.set_objective({{j, 1.0}}, direction);
      const LpSolution oracle = SimplexSolver().solve(p);
      revised.set_objective({{j, 1.0}}, direction);
      const LpSolution warm = revised.reoptimize();
      ASSERT_EQ(oracle.status, SolveStatus::kOptimal) << "seed " << GetParam();
      ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << GetParam() << " var " << j;
      EXPECT_NEAR(warm.objective, oracle.objective, 1e-7)
          << "seed " << GetParam() << " var " << j
          << (direction == Objective::kMinimize ? " min" : " max");
      if (direction == Objective::kMinimize)
        lo = std::max(lo, oracle.objective);
      else
        hi = std::min(hi, oracle.objective);
    }
    if (lo > hi) lo = hi;
    p.set_bounds(j, lo, hi);
    revised.set_bounds(j, lo, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, WarmObjectiveRestart, ::testing::Range(0, 60));

TEST(WarmObjectiveRestart, StaleVertexIsNotTakenForOptimal) {
  // min x over x + y <= 10 (x, y in [0, 10]) ends at x = y = 0. That
  // vertex is still primal feasible for max x but far from optimal
  // (x = 10): a restart that never prices the new reduced costs would
  // return the stale objective 0.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 10.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 4.0);
  RevisedSimplex revised;
  revised.load(p);
  revised.set_objective({{x, 1.0}}, Objective::kMinimize);
  const LpSolution first = revised.reoptimize();
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_NEAR(first.objective, 0.0, kTol);

  revised.set_objective({{x, 1.0}}, Objective::kMaximize);
  const LpSolution warm = revised.reoptimize();
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, 7.0, kTol);  // x - y <= 4 binds with x + y <= 10
  EXPECT_GT(warm.iterations, 0u);
  EXPECT_NEAR(warm.values[x], 7.0, kTol);
  EXPECT_NEAR(warm.values[y], 3.0, kTol);

  // A warm restart on a vertex that is still optimal spends no pivots.
  const LpSolution again = revised.reoptimize();
  ASSERT_EQ(again.status, SolveStatus::kOptimal);
  EXPECT_NEAR(again.objective, 7.0, kTol);
  EXPECT_EQ(again.iterations, 0u);
}

TEST(WarmObjectiveRestart, TightenedBoundThatCutsTheVertexFallsBackSoundly) {
  // After max x (vertex x = 7), shrinking x's box below 7 leaves the
  // basis primal infeasible; the restart must still reach the optimum.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 10.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 4.0);
  RevisedSimplex revised;
  revised.load(p);
  revised.set_objective({{x, 1.0}}, Objective::kMaximize);
  ASSERT_EQ(revised.reoptimize().status, SolveStatus::kOptimal);
  revised.set_bounds(x, 0.0, 5.0);
  revised.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMaximize);
  const LpSolution s = revised.reoptimize();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, kTol);
  revised.set_bounds(x, 4.5, 5.0);
  revised.set_objective({{y, 1.0}}, Objective::kMinimize);
  const LpSolution t = revised.reoptimize();
  ASSERT_EQ(t.status, SolveStatus::kOptimal);
  EXPECT_NEAR(t.objective, 0.5, kTol);  // x >= 4.5 and x - y <= 4 force y >= 0.5
}

}  // namespace
}  // namespace dpv::lp
