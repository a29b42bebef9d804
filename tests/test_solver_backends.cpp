// Solver backend layer tests: dense-tableau vs revised-bounded parity on
// LPs and MILPs, warm-start correctness and economy, parallel branch &
// bound verdict invariance, and campaign determinism across thread
// counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <regex>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kTol = 1e-5;

using lp::LinearTerm;
using lp::LpProblem;
using lp::LpSolution;
using lp::Objective;
using lp::RowSense;
using lp::SolveStatus;
using solver::LpBackendKind;

std::unique_ptr<solver::LpBackend> backend_for(LpBackendKind kind) {
  return solver::make_lp_backend(kind, {});
}

/// Solves `p` on both backends and checks status (and objective when
/// optimal) agree.
void expect_lp_parity(const LpProblem& p, const char* label) {
  auto dense = backend_for(LpBackendKind::kDenseTableau);
  auto revised = backend_for(LpBackendKind::kRevisedBounded);
  dense->load(p);
  revised->load(p);
  const LpSolution a = dense->solve();
  const LpSolution b = revised->solve();
  ASSERT_EQ(a.status, b.status) << label;
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, kTol) << label;
    // Both points must satisfy every row and box of the problem.
    for (const auto& sol : {a, b}) {
      for (std::size_t v = 0; v < p.variable_count(); ++v) {
        EXPECT_GE(sol.values[v], p.lower_bound(v) - kTol) << label;
        EXPECT_LE(sol.values[v], p.upper_bound(v) + kTol) << label;
      }
      for (const auto& row : p.rows()) {
        double activity = 0.0;
        for (const LinearTerm& t : row.terms) activity += t.coeff * sol.values[t.var];
        if (row.sense == RowSense::kLessEqual) EXPECT_LE(activity, row.rhs + kTol) << label;
        if (row.sense == RowSense::kGreaterEqual)
          EXPECT_GE(activity, row.rhs - kTol) << label;
        if (row.sense == RowSense::kEqual) EXPECT_NEAR(activity, row.rhs, kTol) << label;
      }
    }
  }
}

TEST(BackendParity, TextbookMaximization) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, Objective::kMaximize);
  expect_lp_parity(p, "textbook");

  auto revised = backend_for(LpBackendKind::kRevisedBounded);
  revised->load(p);
  const LpSolution s = revised->solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 6.0, kTol);
}

TEST(BackendParity, EqualityAndNegativeBounds) {
  LpProblem p;
  const std::size_t x = p.add_variable(-50.0, 50.0, "x");
  const std::size_t y = p.add_variable(-50.0, 50.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 2.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);
  expect_lp_parity(p, "equalities");
}

TEST(BackendParity, Infeasibility) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  p.add_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  expect_lp_parity(p, "infeasible");
}

TEST(BackendParity, PureBoundsAndFixedVariables) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.5, 2.5, "x");
  const std::size_t y = p.add_variable(0.5, 3.0, "y");
  const std::size_t z = p.add_variable(2.0, 2.0, "z");  // fixed
  p.add_row({{z, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 6.0);
  p.set_objective({{x, 1.0}, {y, -1.0}}, Objective::kMinimize);
  expect_lp_parity(p, "bounds+fixed");
}

TEST(BackendParity, RedundantEqualityRows) {
  LpProblem p;
  const std::size_t x = p.add_variable(-10.0, 10.0, "x");
  const std::size_t y = p.add_variable(-10.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.set_objective({{x, 1.0}}, Objective::kMaximize);
  expect_lp_parity(p, "redundant-equalities");
}

TEST(BackendParity, NonFiniteOrInvertedBoundsAreRejected) {
  // Both backends must refuse a box the LP layer cannot represent,
  // instead of one of them solving an LP with a sentinel-sized bound.
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  const double bad_boxes[][2] = {{-kInfinity, 1.0},
                                 {0.0, kInfinity},
                                 {std::numeric_limits<double>::quiet_NaN(), 1.0},
                                 {2.0, 1.0}};
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 3.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);
  for (const LpBackendKind kind :
       {LpBackendKind::kDenseTableau, LpBackendKind::kRevisedBounded}) {
    auto backend = backend_for(kind);
    backend->load(p);
    for (const auto& box : bad_boxes)
      EXPECT_THROW(backend->set_bounds(x, box[0], box[1]), ContractViolation)
          << solver::lp_backend_kind_name(kind) << " [" << box[0] << ", " << box[1]
          << "]";
    EXPECT_THROW(backend->set_bounds(2, 0.0, 1.0), ContractViolation)
        << solver::lp_backend_kind_name(kind);
    // The rejected calls left the loaded boxes untouched.
    const LpSolution s = backend->solve();
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << solver::lp_backend_kind_name(kind);
    EXPECT_NEAR(s.objective, 3.0, kTol) << solver::lp_backend_kind_name(kind);
  }
}

/// Random box-bounded LPs with a known interior point: both backends must
/// agree on status and optimum.
class BackendRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(BackendRandomLp, StatusAndObjectiveAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
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
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n; ++c) {
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({c, coeff});
      activity += coeff * interior[c];
    }
    // Mix senses; keep the interior point feasible.
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0) {
      p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.1, 2.0));
    } else if (sense == 1) {
      p.add_row(terms, RowSense::kGreaterEqual, activity - rng.uniform(0.1, 2.0));
    } else {
      p.add_row(terms, RowSense::kEqual, activity);
    }
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c) objective.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, rng.bernoulli(0.5) ? Objective::kMinimize
                                                : Objective::kMaximize);
  expect_lp_parity(p, "random-lp");
}

INSTANTIATE_TEST_SUITE_P(RandomLps, BackendRandomLp, ::testing::Range(0, 40));

TEST(WarmStart, BoundTighteningResolvesCheaply) {
  // A chain of coupled rows so the cold solve needs real work; then
  // tighten one variable's box (the branch & bound move) and resolve.
  Rng rng(91);
  const std::size_t n = 12;
  LpProblem p;
  for (std::size_t i = 0; i < n; ++i) p.add_variable(-2.0, 2.0);
  for (std::size_t i = 0; i + 1 < n; ++i)
    p.add_row({{i, 1.0}, {i + 1, rng.uniform(0.3, 1.5)}}, RowSense::kLessEqual,
              rng.uniform(0.5, 2.0));
  std::vector<LinearTerm> objective;
  for (std::size_t i = 0; i < n; ++i) objective.push_back({i, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, Objective::kMinimize);

  auto revised = backend_for(LpBackendKind::kRevisedBounded);
  revised->load(p);
  const LpSolution cold = revised->solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const solver::WarmBasis basis = revised->capture_basis();
  ASSERT_FALSE(basis.empty());

  // Tighten: fix variable 3 to its model value rounded toward zero.
  revised->set_bounds(3, 0.0, 0.0);
  const LpSolution warm = revised->resolve(basis);

  // Reference: a fresh cold solve of the tightened problem.
  LpProblem tightened = p;
  tightened.set_bounds(3, 0.0, 0.0);
  auto reference = backend_for(LpBackendKind::kDenseTableau);
  reference->load(tightened);
  const LpSolution ref = reference->solve();

  ASSERT_EQ(warm.status, ref.status);
  if (ref.status == SolveStatus::kOptimal)
    EXPECT_NEAR(warm.objective, ref.objective, kTol);
  EXPECT_EQ(revised->stats().warm_attempts, 1u);
  EXPECT_EQ(revised->stats().warm_hits, 1u);
  // The warm resolve must be much cheaper than solving from scratch.
  EXPECT_LE(warm.iterations, std::max<std::size_t>(cold.iterations, 2));
}

TEST(WarmStart, SolveChildrenMatchesSequentialResolvesOnBothBackends) {
  // The same chained LP as above; branch on variable 3 and compare the
  // batched sibling solve against two manual set_bounds + resolve calls.
  Rng rng(91);
  const std::size_t n = 12;
  LpProblem p;
  for (std::size_t i = 0; i < n; ++i) p.add_variable(-2.0, 2.0);
  for (std::size_t i = 0; i + 1 < n; ++i)
    p.add_row({{i, 1.0}, {i + 1, rng.uniform(0.3, 1.5)}}, RowSense::kLessEqual,
              rng.uniform(0.5, 2.0));
  std::vector<LinearTerm> objective;
  for (std::size_t i = 0; i < n; ++i) objective.push_back({i, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, Objective::kMinimize);

  for (const LpBackendKind kind :
       {LpBackendKind::kRevisedBounded, LpBackendKind::kDenseTableau}) {
    auto batched = backend_for(kind);
    batched->load(p);
    ASSERT_EQ(batched->solve().status, SolveStatus::kOptimal);
    const solver::WarmBasis parent = batched->capture_basis();

    const solver::ChildBounds children[2] = {{3, 0.0, 0.0}, {3, 1.0, 1.0}};
    solver::ChildResult results[2];
    batched->solve_children(parent, children, 2, results);
    EXPECT_EQ(batched->stats().sibling_batches, 1u);

    auto manual = backend_for(kind);
    manual->load(p);
    ASSERT_EQ(manual->solve().status, SolveStatus::kOptimal);
    const solver::WarmBasis manual_parent = manual->capture_basis();
    for (int c = 0; c < 2; ++c) {
      manual->set_bounds(children[c].var, children[c].lo, children[c].up);
      const LpSolution ref = manual->resolve(manual_parent);
      ASSERT_EQ(results[c].solution.status, ref.status)
          << solver::lp_backend_kind_name(kind) << " child " << c;
      if (ref.status == SolveStatus::kOptimal) {
        EXPECT_NEAR(results[c].solution.objective, ref.objective, kTol)
            << solver::lp_backend_kind_name(kind) << " child " << c;
        // A warm-capable backend must hand back a usable child basis.
        if (batched->supports_warm_start())
          EXPECT_FALSE(results[c].basis.empty());
      }
    }
  }
}

TEST(WarmStart, StaleBasisFallsBackToColdSolve) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  p.add_row({{0, 1.0}}, RowSense::kLessEqual, 0.5);
  auto revised = backend_for(LpBackendKind::kRevisedBounded);
  revised->load(p);
  solver::WarmBasis wrong;
  wrong.basic = {5};             // out of range for this problem
  wrong.at_upper = {0, 0, 0, 0};
  const LpSolution s = revised->resolve(wrong);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(revised->stats().warm_attempts, 1u);
  EXPECT_EQ(revised->stats().warm_hits, 0u);
}

TEST(WarmStart, DenseBackendNeverClaimsHits) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  auto dense = backend_for(LpBackendKind::kDenseTableau);
  dense->load(p);
  EXPECT_FALSE(dense->supports_warm_start());
  EXPECT_TRUE(dense->capture_basis().empty());
  solver::WarmBasis basis;
  basis.basic = {0};
  basis.at_upper = {0};
  const LpSolution s = dense->resolve(basis);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(dense->stats().warm_hits, 0u);
}

// ---------------------------------------------------------------- MILP

milp::MilpResult solve_milp(const milp::MilpProblem& p, LpBackendKind kind,
                            std::size_t threads = 1,
                            bool stop_at_first_feasible = false) {
  milp::BranchAndBoundOptions options;
  options.backend = kind;
  options.threads = threads;
  options.stop_at_first_feasible = stop_at_first_feasible;
  return milp::BranchAndBoundSolver(options).solve(p);
}

/// Random small MILPs: both backends (and 1 vs 4 threads) must agree
/// with brute-force enumeration.
class MilpBackendSweep : public ::testing::TestWithParam<int> {};

TEST_P(MilpBackendSweep, BackendsAndThreadCountsAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  const std::size_t n_bin = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(1, 4));

  milp::MilpProblem p;
  std::vector<std::size_t> bins;
  for (std::size_t i = 0; i < n_bin; ++i)
    bins.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
  std::vector<std::vector<double>> coeffs(n_rows, std::vector<double>(n_bin));
  std::vector<double> rhs(n_rows);
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n_bin; ++c) {
      coeffs[r][c] = rng.uniform(-3.0, 3.0);
      terms.push_back({bins[c], coeffs[r][c]});
    }
    rhs[r] = rng.uniform(-2.0, 4.0);
    p.add_row(terms, RowSense::kLessEqual, rhs[r]);
  }
  std::vector<double> obj(n_bin);
  std::vector<LinearTerm> obj_terms;
  for (std::size_t c = 0; c < n_bin; ++c) {
    obj[c] = rng.uniform(-2.0, 2.0);
    obj_terms.push_back({bins[c], obj[c]});
  }
  p.set_objective(obj_terms, Objective::kMaximize);

  double best = -1e100;
  bool any = false;
  for (std::size_t mask = 0; mask < (1u << n_bin); ++mask) {
    bool feasible = true;
    for (std::size_t r = 0; r < n_rows && feasible; ++r) {
      double act = 0.0;
      for (std::size_t c = 0; c < n_bin; ++c)
        if (mask & (1u << c)) act += coeffs[r][c];
      feasible = act <= rhs[r] + 1e-9;
    }
    if (!feasible) continue;
    any = true;
    double value = 0.0;
    for (std::size_t c = 0; c < n_bin; ++c)
      if (mask & (1u << c)) value += obj[c];
    best = std::max(best, value);
  }

  for (const LpBackendKind kind :
       {LpBackendKind::kDenseTableau, LpBackendKind::kRevisedBounded}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const milp::MilpResult r = solve_milp(p, kind, threads);
      if (!any) {
        EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible)
            << "seed " << GetParam() << " backend " << solver::lp_backend_kind_name(kind)
            << " threads " << threads;
      } else {
        ASSERT_EQ(r.status, milp::MilpStatus::kOptimal)
            << "seed " << GetParam() << " backend " << solver::lp_backend_kind_name(kind)
            << " threads " << threads;
        EXPECT_NEAR(r.objective, best, kTol)
            << "seed " << GetParam() << " backend " << solver::lp_backend_kind_name(kind)
            << " threads " << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMilps, MilpBackendSweep, ::testing::Range(0, 25));

TEST(MilpWarmStart, RevisedBackendReusesParentBases) {
  // An integrally-infeasible instance that forces a full tree search, so
  // the warm-start machinery gets real traffic.
  milp::MilpProblem p;
  std::vector<LinearTerm> parity;
  for (int i = 0; i < 8; ++i)
    parity.push_back({p.add_variable(milp::VarType::kBinary, 0.0, 1.0), 1.0});
  p.add_row(parity, RowSense::kEqual, 3.5);
  const milp::MilpResult r = solve_milp(p, LpBackendKind::kRevisedBounded);
  EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible);
  EXPECT_GT(r.solver_stats.warm_attempts, 0u);
  EXPECT_GT(r.solver_stats.warm_hits, 0u);
  EXPECT_GE(r.solver_stats.warm_hit_rate(), 0.9);
}

TEST(MilpWarmStart, RevisedBackendNeedsFarFewerLpIterations) {
  // Same search tree on both backends (identical branching rule); the
  // warm-started revised backend must spend far fewer simplex pivots.
  Rng rng(7);
  milp::MilpProblem p;
  std::vector<std::size_t> bins;
  for (int i = 0; i < 10; ++i)
    bins.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
  std::vector<LinearTerm> sum;
  for (const std::size_t b : bins) sum.push_back({b, 1.0});
  p.add_row(sum, RowSense::kEqual, 4.5);  // integrally infeasible
  for (int r = 0; r < 4; ++r) {
    std::vector<LinearTerm> terms;
    for (const std::size_t b : bins) terms.push_back({b, rng.uniform(-1.0, 1.0)});
    p.add_row(terms, RowSense::kLessEqual, rng.uniform(1.0, 3.0));
  }
  const milp::MilpResult dense = solve_milp(p, LpBackendKind::kDenseTableau);
  const milp::MilpResult revised = solve_milp(p, LpBackendKind::kRevisedBounded);
  EXPECT_EQ(dense.status, milp::MilpStatus::kInfeasible);
  EXPECT_EQ(revised.status, milp::MilpStatus::kInfeasible);
  ASSERT_GT(dense.lp_iterations, 0u);
  EXPECT_LE(revised.lp_iterations * 2, dense.lp_iterations)
      << "revised " << revised.lp_iterations << " vs dense " << dense.lp_iterations;
}

TEST(ParallelBnb, FeasibilityModeStopsEarlyOnAllThreadCounts) {
  milp::MilpProblem p;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
  std::vector<LinearTerm> sum;
  for (const std::size_t v : vars) sum.push_back({v, 1.0});
  p.add_row(sum, RowSense::kEqual, 4.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const milp::MilpResult r =
        solve_milp(p, LpBackendKind::kRevisedBounded, threads, true);
    ASSERT_EQ(r.status, milp::MilpStatus::kFeasible) << "threads " << threads;
    double total = 0.0;
    for (const std::size_t v : vars) {
      EXPECT_NEAR(r.values[v], std::round(r.values[v]), 1e-6);
      total += r.values[v];
    }
    EXPECT_NEAR(total, 4.0, kTol) << "threads " << threads;
  }
}

// ------------------------------------------------------------- verifier

TEST(VerifierPlumbing, LpIterationLimitSurfacesAsExplainedUnknown) {
  // Starve the LP (not the node budget): the verdict must be UNKNOWN
  // with an explanatory note, not silently folded into node accounting.
  Rng rng(21);
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(6, 6);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto out = std::make_unique<nn::Dense>(6, 2);
  out->init_he(rng);
  net.add(std::move(out));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(6, -1.0, 1.0);
  q.risk.output_at_least(0, 2, 1e6);  // unreachable: forces a proof search

  verify::TailVerifierOptions options;
  options.milp.lp_options.max_iterations = 1;  // starve every relaxation
  options.encode.lp_options.max_iterations = 1;
  // Keep the feasibility objective: the risk-margin objective lets the
  // dual simplex prove this root infeasible in zero iterations, which
  // is sound but defeats the starvation this test is about.
  options.risk_margin_objective = false;
  const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
  EXPECT_EQ(r.verdict, verify::Verdict::kUnknown);
  EXPECT_NE(r.summary().find("LP iteration limit"), std::string::npos) << r.summary();
}

TEST(VerifierPlumbing, SummaryNamesBackendAndWarmRate) {
  Rng rng(33);
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(4, 4);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto out = std::make_unique<nn::Dense>(4, 2);
  out->init_he(rng);
  net.add(std::move(out));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(4, -1.0, 1.0);
  q.risk.output_at_least(0, 2, 1e6);

  const verify::VerificationResult r =
      verify::TailVerifier(verify::TailVerifierOptions{}).verify(q);
  EXPECT_NE(r.summary().find("backend=revised-bounded"), std::string::npos)
      << r.summary();
}

// ------------------------------------------------------------- campaign

train::Dataset labelled_cloud(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

nn::Network make_small_net(Rng& rng) {
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(2, 4);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto readout = std::make_unique<nn::Dense>(4, 2);
  readout->init_he(rng);
  net.add(std::move(readout));
  return net;
}

std::vector<core::CampaignEntry> make_entries(Rng& rng) {
  std::vector<core::CampaignEntry> entries;
  verify::RiskSpec unreachable("far-out");
  unreachable.output_at_least(0, 2, 1e6);
  verify::RiskSpec reachable("reachable");
  reachable.output_at_most(0, 2, 1e6);
  for (int i = 0; i < 3; ++i)
    entries.push_back({"x0-positive-" + std::to_string(i), labelled_cloud(rng, 60),
                       labelled_cloud(rng, 30), i % 2 == 0 ? unreachable : reachable});
  return entries;
}

/// Blanks the legitimately run-dependent report fields (wall times).
std::string strip_timings(std::string text) {
  const std::regex timing("(encode=|solve=|, )[0-9.e+-]+s");
  return std::regex_replace(text, timing, "$1<t>s");
}

TEST(ParallelCampaign, ReportsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(101);
  const nn::Network net = make_small_net(rng);
  const std::vector<core::CampaignEntry> entries = make_entries(rng);

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 20;

  std::vector<std::string> tables;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    config.campaign_threads = threads;
    const core::CampaignReport report = core::run_campaign(net, 2, entries, config);
    std::string all = report.format_table();
    for (const core::WorkflowReport& wr : report.reports) all += "\n" + wr.to_string();
    tables.push_back(strip_timings(std::move(all)));
  }
  EXPECT_EQ(tables[0], tables[1]);
  EXPECT_EQ(tables[0], tables[2]);
}

TEST(ParallelCampaign, PerEntryNodeBudgetApplies) {
  Rng rng(103);
  const nn::Network net = make_small_net(rng);
  const std::vector<core::CampaignEntry> entries = make_entries(rng);

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 20;
  config.entry_node_budget = 1;  // starve every entry's MILP search
  const core::CampaignReport report = core::run_campaign(net, 2, entries, config);
  for (const core::WorkflowReport& wr : report.reports)
    EXPECT_LE(wr.safety.verification.milp_nodes, 1u) << wr.property_name;
}

}  // namespace
}  // namespace dpv
