// Sparse LU factorization engine tests: factor/solve identity against a
// dense reference on randomized sparse bases, Forrest–Tomlin update
// equivalence to refactorization across pivot chains, revised-simplex
// optima and tableau rows against the dense-tableau oracle and a naive
// dense inverse, verdict parity across backend x threads x cuts, and
// the singular-basis crash recovery path.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "lp/basis_lu.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kTol = 1e-6;

using lp::BasisLu;
using lp::CscMatrix;
using lp::LinearTerm;
using lp::LpProblem;
using lp::LpSolution;
using lp::Objective;
using lp::RevisedSimplex;
using lp::RowSense;
using lp::SimplexOptions;
using lp::SolveStatus;
using solver::LpBackendKind;

// ------------------------------------------------------- dense reference

/// Builds the dense basis matrix selected by `basic` (j < n: structural
/// column j of A; j >= n: logical -e_{j-n}).
std::vector<double> dense_basis(const CscMatrix& A, std::size_t n,
                                const std::vector<std::int32_t>& basic) {
  const std::size_t m = basic.size();
  std::vector<double> B(m * m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t j = static_cast<std::size_t>(basic[k]);
    if (j >= n) {
      B[(j - n) * m + k] = -1.0;
    } else {
      for (std::size_t e = A.col_start[j]; e < A.col_start[j + 1]; ++e)
        B[A.row_index[e] * m + k] += A.value[e];
    }
  }
  return B;
}

/// Solves M x = b by Gaussian elimination with partial pivoting.
/// Returns false when M is (near) singular.
bool dense_solve(std::vector<double> M, std::size_t m, std::vector<double>& b) {
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    double best = std::abs(M[perm[col] * m + col]);
    for (std::size_t r = col + 1; r < m; ++r) {
      const double a = std::abs(M[perm[r] * m + col]);
      if (a > best) {
        best = a;
        pivot = r;
      }
    }
    if (best < 1e-10) return false;
    std::swap(perm[col], perm[pivot]);
    const double inv = 1.0 / M[perm[col] * m + col];
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = M[perm[r] * m + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < m; ++c) M[perm[r] * m + c] -= f * M[perm[col] * m + c];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  std::vector<double> x(m, 0.0);
  for (std::size_t col = m; col-- > 0;) {
    double v = b[perm[col]];
    for (std::size_t c = col + 1; c < m; ++c) v -= M[perm[col] * m + c] * x[c];
    x[col] = v / M[perm[col] * m + col];
  }
  b = std::move(x);
  return true;
}

std::vector<double> transpose(const std::vector<double>& M, std::size_t m) {
  std::vector<double> T(m * m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) T[c * m + r] = M[r * m + c];
  return T;
}

/// Random sparse structural columns: ~3 nonzeros each on distinct rows,
/// entries O(1) and bounded away from zero.
CscMatrix random_csc(Rng& rng, std::size_t m, std::size_t n) {
  CscMatrix A;
  A.rows = m;
  A.cols = n;
  A.col_start.assign(n + 1, 0);
  std::vector<std::size_t> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = i;
  for (std::size_t j = 0; j < n; ++j) {
    A.col_start[j] = A.row_index.size();
    const std::size_t nnz =
        std::min<std::size_t>(m, static_cast<std::size_t>(rng.uniform_int(1, 4)));
    // Partial Fisher-Yates: the first nnz entries of `rows` become a
    // uniform sample of distinct row indices.
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(k), static_cast<int>(m) - 1));
      std::swap(rows[k], rows[pick]);
      A.row_index.push_back(rows[k]);
      A.value.push_back(rng.uniform(-3.0, 3.0) + (rng.bernoulli(0.5) ? 1.5 : -1.5));
    }
  }
  A.col_start[n] = A.row_index.size();
  return A;
}

/// A random basis mixing structural and logical columns.
std::vector<std::int32_t> random_basis(Rng& rng, std::size_t m, std::size_t n) {
  std::vector<std::int32_t> basic(m);
  std::vector<std::uint8_t> used(n, 0);
  for (std::size_t k = 0; k < m; ++k) {
    if (rng.bernoulli(0.45)) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      if (!used[j]) {
        used[j] = 1;
        basic[k] = static_cast<std::int32_t>(j);
        continue;
      }
    }
    basic[k] = static_cast<std::int32_t>(n + k);  // logical of its own row
  }
  return basic;
}

// --------------------------------------------------- factor/solve parity

TEST(BasisLuFactor, FtranAndBtranMatchDenseSolvesOnRandomSparseBases) {
  std::size_t factored = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 65537 + 3);
    // Random structural/logical bases are frequently singular; redraw
    // until the dense oracle accepts one so every seed tests a solve.
    for (int attempt = 0; attempt < 40; ++attempt) {
      const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 30));
      const std::size_t n = m + static_cast<std::size_t>(rng.uniform_int(1, 20));
      const CscMatrix A = random_csc(rng, m, n);
      const std::vector<std::int32_t> basic = random_basis(rng, m, n);
      const std::vector<double> B = dense_basis(A, n, basic);

      std::vector<double> rhs(m);
      for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-2.0, 2.0);

      std::vector<double> dense_x = rhs;
      if (!dense_solve(B, m, dense_x)) continue;  // singular draw: redraw

      BasisLu lu;
      ASSERT_TRUE(lu.factorize(A, n, basic)) << "seed " << seed << " m " << m;
      ++factored;

      std::vector<double> x = rhs;
      lu.ftran(x);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(x[i], dense_x[i], 1e-7) << "ftran seed " << seed << " i " << i;

      std::vector<double> dense_y = rhs;
      ASSERT_TRUE(dense_solve(transpose(B, m), m, dense_y));
      std::vector<double> y = rhs;
      lu.btran(y);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(y[i], dense_y[i], 1e-7) << "btran seed " << seed << " i " << i;
      break;
    }
  }
  EXPECT_GE(factored, 35u);  // the sweep must exercise real factorizations
}

/// Drives a random pivot chain from the all-logical basis of a random
/// m x n matrix and, after every Forrest–Tomlin update, checks FTRAN and
/// BTRAN against a from-scratch factorization of the current basis.
/// Stops after `attempts` draws or `target` applied pivots. A declined
/// marginal pivot fails the chain unless `may_decline`, in which case
/// the engine restarts from a fresh factorization and the chain
/// continues. Returns the number of pivots applied.
std::size_t run_update_chain(Rng& rng, std::size_t m, std::size_t n, int attempts,
                             std::size_t target, double pick_floor, double tol,
                             bool may_decline, int seed) {
  const CscMatrix A = random_csc(rng, m, n);
  std::vector<std::int32_t> basic(m);
  for (std::size_t k = 0; k < m; ++k) basic[k] = static_cast<std::int32_t>(n + k);

  BasisLu lu;
  EXPECT_TRUE(lu.factorize(A, n, basic));

  std::size_t applied = 0;
  std::size_t since_factor = 0;
  for (int attempt = 0; attempt < attempts && applied < target; ++attempt) {
    // Entering column: a random structural column not already basic.
    const std::size_t q =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    bool in_basis = false;
    for (const std::int32_t b : basic)
      if (static_cast<std::size_t>(b) == q) in_basis = true;
    if (in_basis) continue;
    std::vector<double> w(m, 0.0);
    for (std::size_t e = A.col_start[q]; e < A.col_start[q + 1]; ++e)
      w[A.row_index[e]] = A.value[e];
    lu.ftran(w);
    // Leaving position: largest |w[r]| (a stable replacement exists).
    std::size_t r = m;
    double best = pick_floor;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::abs(w[i]) > best) {
        best = std::abs(w[i]);
        r = i;
      }
    }
    if (r == m) continue;
    const bool ok = lu.update(r, w);
    basic[r] = static_cast<std::int32_t>(q);
    if (ok) {
      ++since_factor;
    } else {
      EXPECT_TRUE(may_decline) << "seed " << seed << " pivot " << applied;
      if (!may_decline) return applied;
      EXPECT_TRUE(lu.factorize(A, n, basic)) << "seed " << seed;
      since_factor = 0;
    }
    ++applied;
    // One row-eta per update since the last factorization.
    EXPECT_EQ(lu.eta_count(), since_factor) << "seed " << seed;

    // The updated engine must agree with a from-scratch factorization
    // of the *current* basis, in both directions.
    BasisLu fresh;
    EXPECT_TRUE(fresh.factorize(A, n, basic)) << "seed " << seed << " pivot " << applied;
    std::vector<double> rhs(m);
    for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-1.0, 1.0);
    std::vector<double> via_updates = rhs, via_fresh = rhs;
    lu.ftran(via_updates);
    fresh.ftran(via_fresh);
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(via_updates[i], via_fresh[i], tol)
          << "ftran seed " << seed << " pivot " << applied;
    via_updates = rhs;
    via_fresh = rhs;
    lu.btran(via_updates);
    fresh.btran(via_fresh);
    for (std::size_t i = 0; i < m; ++i)
      EXPECT_NEAR(via_updates[i], via_fresh[i], tol)
          << "btran seed " << seed << " pivot " << applied;
  }
  return applied;
}

TEST(BasisLuFactor, EtaUpdatesStayEquivalentToRefactorizationAcrossPivotChains) {
  // Short chains on a small basis: every update must be accepted.
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 2417 + 7);
    const std::size_t applied =
        run_update_chain(rng, 18, 40, 50, 50, 1e-7, 1e-6, false, seed);
    EXPECT_GT(applied, 10u) << "seed " << seed;
  }
  // 100-pivot chains on a wider basis, well past the refactorization
  // cadence the simplex would impose: the row-eta file and U fill keep
  // growing, and a declined marginal pivot restarts from fresh factors.
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    EXPECT_GE(run_update_chain(rng, 24, 60, 1000, 100, 1e-6, 1e-5, true, seed), 100u)
        << "seed " << seed;
  }
}

TEST(BasisLuFactor, AdaptiveCadenceScalesWithBasisDimension) {
  Rng rng(91);
  for (const std::size_t m : {std::size_t{8}, std::size_t{200}, std::size_t{900}}) {
    const CscMatrix A = random_csc(rng, m, m + 4);
    std::vector<std::int32_t> basic(m);
    for (std::size_t k = 0; k < m; ++k)
      basic[k] = static_cast<std::int32_t>(m + 4 + k);
    // Cadence clamp(m, 64, 512): Forrest–Tomlin keeps U triangular, so
    // large bases sustain update runs proportional to their dimension.
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(A, m + 4, basic));
    EXPECT_GE(lu.refactor_cadence(), 64u);
    EXPECT_LE(lu.refactor_cadence(), 512u);
    if (m >= 200) EXPECT_GE(lu.refactor_cadence(), m / 2);
  }
}

// ------------------------------------------- revised simplex parity

LpProblem random_lp(Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 10));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 14));
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
      if (rng.bernoulli(0.5)) continue;  // sparse rows, like the encoder's
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({c, coeff});
      activity += coeff * interior[c];
    }
    if (terms.empty()) terms.push_back({0, 1.0}), activity = interior[0];
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0)
      p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.1, 2.0));
    else if (sense == 1)
      p.add_row(terms, RowSense::kGreaterEqual, activity - rng.uniform(0.1, 2.0));
    else
      p.add_row(terms, RowSense::kEqual, activity);
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c) objective.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, rng.bernoulli(0.5) ? Objective::kMinimize
                                                : Objective::kMaximize);
  return p;
}

void expect_feasible(const LpProblem& p, const LpSolution& sol, const char* label) {
  for (std::size_t v = 0; v < p.variable_count(); ++v) {
    EXPECT_GE(sol.values[v], p.lower_bound(v) - kTol) << label;
    EXPECT_LE(sol.values[v], p.upper_bound(v) + kTol) << label;
  }
  for (const auto& row : p.rows()) {
    double activity = 0.0;
    for (const LinearTerm& t : row.terms) activity += t.coeff * sol.values[t.var];
    if (row.sense == RowSense::kLessEqual) {
      EXPECT_LE(activity, row.rhs + kTol) << label;
    } else if (row.sense == RowSense::kGreaterEqual) {
      EXPECT_GE(activity, row.rhs - kTol) << label;
    } else {
      EXPECT_NEAR(activity, row.rhs, kTol) << label;
    }
  }
}

/// The revised simplex against the independent dense-tableau oracle
/// (lp::SimplexSolver) on one random LP: same status, same optimum, and
/// both points feasible.
void expect_matches_dense_tableau(const LpProblem& p, int seed) {
  RevisedSimplex revised;
  revised.load(p);
  const LpSolution a = lp::SimplexSolver().solve(p);
  const LpSolution b = revised.solve();
  ASSERT_EQ(a.status, b.status) << "seed " << seed;
  EXPECT_GT(revised.factor_stats().factorizations, 0u);
  if (a.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(a.objective, b.objective, kTol) << "seed " << seed;
  expect_feasible(p, a, "dense-tableau");
  expect_feasible(p, b, "revised");
}

class FactorizationRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(FactorizationRandomLp, RevisedSimplexAgreesWithDenseTableau) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 92821 + 5);
  expect_matches_dense_tableau(random_lp(rng), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomLps, FactorizationRandomLp, ::testing::Range(0, 60));

class PricingRandomLp : public ::testing::TestWithParam<int> {};

// Two more random-LP streams, one per pricing-path concern the revised
// simplex carries (Devex leaving-row weights, incrementally maintained
// reduced costs), both checked against the oracle.
TEST_P(PricingRandomLp, DevexReachesTheDenseTableauOptima) {
  Rng devex_rng(static_cast<std::uint64_t>(GetParam()) * 48611 + 9);
  expect_matches_dense_tableau(random_lp(devex_rng), GetParam());
  Rng reduced_cost_rng(static_cast<std::uint64_t>(GetParam()) * 76493 + 21);
  expect_matches_dense_tableau(random_lp(reduced_cost_rng), GetParam());
}

INSTANTIATE_TEST_SUITE_P(RandomLps, PricingRandomLp, ::testing::Range(0, 60));

TEST(BasisUpdateCounters, FactorStatsCountForrestTomlinUpdates) {
  std::size_t exercised = 0;
  for (int seed = 0; seed < 20 && exercised < 5; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 30103 + 17);
    const LpProblem p = random_lp(rng);
    RevisedSimplex simplex;
    simplex.load(p);
    const LpSolution sol = simplex.solve();
    ASSERT_EQ(sol.status, lp::SimplexSolver().solve(p).status) << "seed " << seed;
    const lp::BasisFactorStats& stats = simplex.factor_stats();
    // Every update appends at least its new diagonal to the update file.
    EXPECT_GE(stats.eta_nonzeros, stats.updates) << "seed " << seed;
    EXPECT_GT(stats.refactor_cadence, 0u);
    if (stats.updates > 0) ++exercised;
  }
  EXPECT_GE(exercised, 5u);  // the sweep must hit real update chains
}

/// Checks every tableau row of `simplex`'s optimal basis for `p` against
/// a naive dense computation: rho_r solves Bᵀ rho = e_r for the dense
/// basis matrix B, and alpha_j = rho_r · a_j for each nonbasic column
/// (structural j: the problem's column; logical n + i: -e_i). The row's
/// basic value must satisfy the identity at the nonbasic resting bounds.
void expect_tableau_rows_match_dense_inverse(const LpProblem& p,
                                             const RevisedSimplex& simplex,
                                             const std::string& label) {
  const std::size_t n = p.variable_count();
  const std::size_t m = p.row_count();
  std::vector<double> A(m * n, 0.0);  // row-major problem matrix
  for (std::size_t i = 0; i < m; ++i)
    for (const LinearTerm& t : p.rows()[i].terms) A[i * n + t.var] += t.coeff;
  const auto column = [&](std::size_t j, std::size_t i) {
    return j < n ? A[i * n + j] : (j - n == i ? -1.0 : 0.0);
  };
  const lp::SimplexBasis basis = simplex.capture_basis();
  ASSERT_EQ(basis.basic.size(), m) << label;
  std::vector<double> B(m * m);
  std::vector<std::uint8_t> is_basic(n + m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t j = static_cast<std::size_t>(basis.basic[k]);
    is_basic[j] = 1;
    for (std::size_t i = 0; i < m; ++i) B[i * m + k] = column(j, i);
  }
  for (std::size_t r = 0; r < m; ++r) {
    lp::TableauRow row;
    ASSERT_TRUE(simplex.tableau_row(r, row)) << label << " row " << r;
    ASSERT_EQ(row.basic_col, basis.basic[r]) << label << " row " << r;
    std::vector<double> rho(m, 0.0);
    rho[r] = 1.0;
    ASSERT_TRUE(dense_solve(transpose(B, m), m, rho)) << label;
    std::map<std::size_t, const lp::TableauRow::Entry*> entries;
    for (const auto& e : row.entries) entries[e.col] = &e;
    double identity = row.basic_value;
    for (std::size_t j = 0; j < n + m; ++j) {
      if (is_basic[j]) {
        EXPECT_EQ(entries.count(j), 0u) << label << " row " << r << " basic col " << j;
        continue;
      }
      double alpha = 0.0;
      for (std::size_t i = 0; i < m; ++i) alpha += rho[i] * column(j, i);
      const auto it = entries.find(j);
      if (it == entries.end()) {
        EXPECT_NEAR(alpha, 0.0, 1e-9) << label << " row " << r << " col " << j;
        continue;
      }
      EXPECT_NEAR(it->second->alpha, alpha, 1e-8) << label << " row " << r << " col " << j;
      identity += alpha * (it->second->at_upper ? it->second->up : it->second->lo);
    }
    EXPECT_NEAR(identity, 0.0, 1e-7) << label << " row " << r;
  }
}

TEST(FactorizationParity, TableauRowsMatchNaiveDenseInverse) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 14.0);
  p.add_row({{x, 3.0}, {y, -1.0}}, RowSense::kGreaterEqual, 0.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 2.0);
  p.set_objective({{x, 3.0}, {y, 4.0}}, Objective::kMaximize);
  RevisedSimplex textbook;
  textbook.load(p);
  ASSERT_EQ(textbook.solve().status, SolveStatus::kOptimal);
  expect_tableau_rows_match_dense_inverse(p, textbook, "textbook");

  std::size_t checked = 0;
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 92821 + 5);
    const LpProblem q = random_lp(rng);
    RevisedSimplex simplex;
    simplex.load(q);
    if (simplex.solve().status != SolveStatus::kOptimal) continue;
    expect_tableau_rows_match_dense_inverse(q, simplex, "seed " + std::to_string(seed));
    ++checked;
  }
  EXPECT_GE(checked, 4u);
}

TEST(FactorizationParity, WarmResolveMatchesColdOracle) {
  // The branch & bound move: solve, tighten one box, resolve warm.
  Rng rng(99);
  const LpProblem p = random_lp(rng);
  RevisedSimplex simplex;
  simplex.load(p);
  const LpSolution cold = simplex.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const lp::SimplexBasis basis = simplex.capture_basis();
  const double mid = 0.5 * (p.lower_bound(0) + p.upper_bound(0));
  simplex.set_bounds(0, p.lower_bound(0), mid);
  const LpSolution warm = simplex.resolve(basis);
  EXPECT_TRUE(simplex.last_resolve_was_warm());
  // Reference: the dense-tableau oracle on the tightened problem.
  LpProblem tightened = p;
  tightened.set_bounds(0, p.lower_bound(0), mid);
  const LpSolution expect = lp::SimplexSolver().solve(tightened);
  ASSERT_EQ(warm.status, expect.status);
  if (warm.status == SolveStatus::kOptimal)
    EXPECT_NEAR(warm.objective, expect.objective, kTol);
}

// ----------------------------------------------- singular-basis recovery

TEST(SingularBasisRecovery, SingularWarmBasisFallsBackAndIsReported) {
  // Columns of x and y are linearly dependent across the two rows, so a
  // basis of {x, y} is singular by construction.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 4.0}}, RowSense::kLessEqual, 8.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMaximize);

  RevisedSimplex simplex;
  simplex.load(p);
  lp::SimplexBasis degenerate;
  degenerate.basic = {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
  // Logicals of <= rows must rest at their (finite) upper bound.
  degenerate.at_upper = {0, 0, 1, 1};
  const LpSolution sol = simplex.resolve(degenerate);
  EXPECT_FALSE(simplex.last_resolve_was_warm());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, kTol);
  EXPECT_GE(simplex.factor_stats().singular_recoveries, 1u);
}

TEST(SingularBasisRecovery, BackendSurfacesRecoveriesInSolverStats) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 4.0}}, RowSense::kLessEqual, 8.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMaximize);

  auto backend = solver::make_lp_backend(LpBackendKind::kRevisedBounded, {});
  backend->load(p);
  solver::WarmBasis degenerate;
  degenerate.basic = {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
  degenerate.at_upper = {0, 0, 1, 1};
  const LpSolution sol = backend->resolve(degenerate);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(backend->stats().warm_hits, 0u);  // the degenerate basis missed
  EXPECT_GE(backend->stats().singular_recoveries, 1u);
  EXPECT_GT(backend->stats().basis_factorizations, 0u);
}

// ------------------------------------------------------- verdict parity

nn::Network make_tail_net(Rng& rng, std::size_t in_n, std::size_t hidden) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

verify::VerificationQuery tail_query(const nn::Network& net, std::size_t in_n,
                                     double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(in_n, -1.0, 1.0);
  q.risk.output_at_least(0, 1, threshold);
  return q;
}

double forcing_threshold(const nn::Network& net, std::size_t in_n, Rng& rng) {
  double sampled_max = -1e100;
  for (int i = 0; i < 1500; ++i) {
    Tensor x(Shape{in_n});
    for (std::size_t j = 0; j < in_n; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  verify::VerificationQuery probe = tail_query(net, in_n, -1e9);
  verify::TailEncoding enc = verify::encode_tail_query(probe, {});
  enc.problem.relaxation().set_objective({{enc.output_vars[0], 1.0}}, Objective::kMaximize);
  const LpSolution root = lp::SimplexSolver().solve(enc.problem.relaxation());
  const double relax_max =
      root.status == SolveStatus::kOptimal ? root.objective : sampled_max + 1.0;
  return sampled_max + 0.75 * std::max(relax_max - sampled_max, 0.1);
}

TEST(FactorizationVerdictParity, FullBatteryAcrossBackendsThreadsAndCuts) {
  for (const std::uint64_t seed : {31u, 32u, 41u, 42u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    // One SAFE proof that must branch, one easy UNSAFE query per pair.
    const double threshold = seed % 2 == 0 ? -5.0 : forcing_threshold(net, in_n, rng);
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);

    verify::TailVerifierOptions base;
    base.milp.max_nodes = 20000;
    const verify::VerificationResult reference = verify::TailVerifier(base).verify(q);
    ASSERT_NE(reference.verdict, verify::Verdict::kUnknown) << "seed " << seed;

    for (const LpBackendKind backend :
         {LpBackendKind::kRevisedBounded, LpBackendKind::kDenseTableau}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t rounds : {std::size_t{0}, std::size_t{4}}) {
          verify::TailVerifierOptions options = base;
          options.milp.backend = backend;
          options.milp.threads = threads;
          options.milp.cuts.root_rounds = rounds;
          const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
          EXPECT_EQ(r.verdict, reference.verdict)
              << "seed " << seed << " backend " << solver::lp_backend_kind_name(backend)
              << " threads " << threads << " rounds " << rounds;
          if (r.verdict == verify::Verdict::kUnsafe)
            EXPECT_TRUE(r.counterexample_validated) << "seed " << seed;
          if (backend != LpBackendKind::kRevisedBounded) continue;
          EXPECT_GT(r.solver_stats.basis_factorizations, 0u) << "seed " << seed;
          if (r.solver_stats.basis_updates > 0)
            EXPECT_GT(r.solver_stats.eta_nonzeros, 0u) << "seed " << seed;
          // A serial branching search must expand at least one node
          // through batched sibling re-solves.
          if (r.milp_nodes > 2 && threads == 1 && rounds == 0)
            EXPECT_GT(r.solver_stats.sibling_batches, 0u)
                << "seed " << seed << " nodes " << r.milp_nodes;
        }
      }
    }
  }
}

TEST(FactorizationStats, SummaryNamesBasisWorkAndTimeSplit) {
  Rng rng(123);
  const std::size_t in_n = 3, hidden = 6;
  const nn::Network net = make_tail_net(rng, in_n, hidden);
  const verify::VerificationQuery q =
      tail_query(net, in_n, forcing_threshold(net, in_n, rng));
  verify::TailVerifierOptions options;
  options.milp.max_nodes = 20000;
  const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
  ASSERT_EQ(r.verdict, verify::Verdict::kSafe);
  EXPECT_GT(r.solver_stats.basis_factorizations, 0u);
  EXPECT_GE(r.solver_stats.factor_seconds, 0.0);
  EXPECT_GE(r.solver_stats.pivot_seconds, 0.0);
  EXPECT_GT(r.solver_stats.factor_seconds + r.solver_stats.pivot_seconds, 0.0);
  EXPECT_NE(r.summary().find("basis="), std::string::npos) << r.summary();
}

// --------------------------------------------- root-cut warm start/aging

TEST(RemoveRows, DropsExactlyTheRequestedRows) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  for (double rhs : {1.0, 2.0, 3.0, 4.0, 5.0})
    p.add_row({{0, 1.0}}, RowSense::kLessEqual, rhs);
  p.remove_rows({1, 3});
  ASSERT_EQ(p.row_count(), 3u);
  EXPECT_EQ(p.rows()[0].rhs, 1.0);
  EXPECT_EQ(p.rows()[1].rhs, 3.0);
  EXPECT_EQ(p.rows()[2].rhs, 5.0);
}

/// Random mixed MILP around an integer-feasible anchor point; Gomory
/// separation sustains several rounds on these, so the warm loop and
/// the aging path both engage (tail encodings tend to go integral after
/// one round and would leave those paths untested).
milp::MilpProblem random_mixed_milp(Rng& rng) {
  milp::MilpProblem p;
  const std::size_t n_bin = static_cast<std::size_t>(rng.uniform_int(4, 8));
  const std::size_t n_cont = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(3, 6));
  std::vector<std::size_t> vars;
  std::vector<double> anchor;
  for (std::size_t i = 0; i < n_bin; ++i) {
    vars.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
    anchor.push_back(rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  for (std::size_t i = 0; i < n_cont; ++i) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = rng.uniform(0.5, 2.0);
    vars.push_back(p.add_variable(milp::VarType::kContinuous, lo, hi));
    anchor.push_back(0.5 * (lo + hi));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<LinearTerm> terms;
    double at_anchor = 0.0;
    for (std::size_t c = 0; c < vars.size(); ++c) {
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({vars[c], coeff});
      at_anchor += coeff * anchor[c];
    }
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0)
      p.add_row(terms, RowSense::kLessEqual, at_anchor + rng.uniform(0.1, 2.0));
    else if (sense == 1)
      p.add_row(terms, RowSense::kGreaterEqual, at_anchor - rng.uniform(0.1, 2.0));
    else
      p.add_row(terms, RowSense::kEqual, at_anchor);
  }
  std::vector<LinearTerm> obj;
  for (const std::size_t v : vars) obj.push_back({v, rng.uniform(-2.0, 2.0)});
  p.set_objective(obj, rng.bernoulli(0.5) ? Objective::kMaximize : Objective::kMinimize);
  return p;
}

TEST(RootCutWarmStart, WarmLoopReusesBasesAndAgesOutStaleCuts) {
  std::size_t warm_resolves = 0, aged_out = 0, multi_round_runs = 0;
  for (int seed = 0; seed < 16; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    const milp::MilpProblem p = random_mixed_milp(rng);
    milp::cuts::CutOptions options;
    options.root_rounds = 10;
    options.warm_root = true;
    options.root_age_limit = 1;  // age out after a single stale round
    milp::MilpProblem copy = p;
    const std::size_t base_rows = p.relaxation().row_count();
    const milp::cuts::RootCutReport report = milp::cuts::run_root_cuts(
        copy, options, LpBackendKind::kRevisedBounded, SimplexOptions{}, 1e-6);

    // Bookkeeping invariants: live + aged == appended, and the problem
    // holds exactly base + live rows.
    EXPECT_EQ(report.cuts_live + report.cuts_aged_out, report.cuts_added)
        << "seed " << seed;
    EXPECT_EQ(copy.relaxation().row_count(), base_rows + report.cuts_live)
        << "seed " << seed;
    warm_resolves += report.warm_rounds;
    aged_out += report.cuts_aged_out;
    if (report.rounds > 1) ++multi_round_runs;
  }
  // The sweep as a whole must exercise the warm path, multi-round
  // separation, and the aging/removal path.
  EXPECT_GT(warm_resolves, 0u);
  EXPECT_GT(multi_round_runs, 0u);
  EXPECT_GT(aged_out, 0u);
}

TEST(RootCutWarmStart, WarmAndAgedSearchStillFindsBruteForceOptima) {
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 3271 + 29);
    const milp::MilpProblem p = random_mixed_milp(rng);

    // Brute force: best objective over feasible binary assignments,
    // completing the continuous part with an LP.
    const std::vector<std::size_t>& bins = p.binary_variables();
    auto lp_backend = solver::make_lp_backend(LpBackendKind::kDenseTableau, {});
    lp_backend->load(p.relaxation());
    const bool maximize = p.relaxation().objective_direction() == Objective::kMaximize;
    bool any = false;
    double best = maximize ? -1e100 : 1e100;
    for (std::size_t mask = 0; mask < (std::size_t{1} << bins.size()); ++mask) {
      for (std::size_t c = 0; c < bins.size(); ++c) {
        const double v = (mask >> c) & 1u ? 1.0 : 0.0;
        lp_backend->set_bounds(bins[c], v, v);
      }
      const LpSolution sol = lp_backend->solve();
      if (sol.status != SolveStatus::kOptimal) continue;
      any = true;
      best = maximize ? std::max(best, sol.objective) : std::min(best, sol.objective);
    }

    milp::BranchAndBoundOptions options;
    options.cuts.root_rounds = 8;
    options.cuts.warm_root = true;
    options.cuts.root_age_limit = 1;
    const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(p);
    if (!any) {
      EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, milp::MilpStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(r.objective, best, 1e-5) << "seed " << seed;
    }
  }
}

TEST(RootCutWarmStart, TailVerdictsUnchangedByWarmLoopAndAging) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    const double threshold = seed % 2 == 0 ? -5.0 : forcing_threshold(net, in_n, rng);
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);

    verify::TailVerifierOptions off;
    off.milp.max_nodes = 20000;
    const verify::VerificationResult reference = verify::TailVerifier(off).verify(q);
    ASSERT_NE(reference.verdict, verify::Verdict::kUnknown);

    for (const bool warm : {false, true}) {
      verify::TailVerifierOptions on = off;
      on.milp.cuts.root_rounds = 6;
      on.milp.cuts.warm_root = warm;
      on.milp.cuts.root_age_limit = warm ? 1 : 0;
      const verify::VerificationResult r = verify::TailVerifier(on).verify(q);
      EXPECT_EQ(r.verdict, reference.verdict) << "seed " << seed << " warm " << warm;
    }
  }
}

}  // namespace
}  // namespace dpv
