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

}  // namespace
}  // namespace dpv::lp
