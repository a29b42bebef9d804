#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace dpv::lp {

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
    case SolveStatus::kDeadline:
      return "deadline";
  }
  return "unknown";
}

namespace {

/// Dense simplex tableau with an explicit basis.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * (cols + 1), 0.0), basis_(rows, 0) {}

  double& at(std::size_t r, std::size_t c) { return cells_[r * (cols_ + 1) + c]; }
  double at(std::size_t r, std::size_t c) const { return cells_[r * (cols_ + 1) + c]; }
  double& rhs(std::size_t r) { return cells_[r * (cols_ + 1) + cols_]; }
  double rhs(std::size_t r) const { return cells_[r * (cols_ + 1) + cols_]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::size_t basis(std::size_t r) const { return basis_[r]; }
  void set_basis(std::size_t r, std::size_t col) { basis_[r] = col; }

  /// Gauss-Jordan pivot on (pivot_row, pivot_col).
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const double p = at(pivot_row, pivot_col);
    const double inv = 1.0 / p;
    double* prow = &cells_[pivot_row * (cols_ + 1)];
    for (std::size_t c = 0; c <= cols_; ++c) prow[c] *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pivot_row) continue;
      double* row = &cells_[r * (cols_ + 1)];
      const double factor = row[pivot_col];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c <= cols_; ++c) row[c] -= factor * prow[c];
    }
    basis_[pivot_row] = pivot_col;
  }

  /// Removes row `r` by swapping with the last row and shrinking.
  void drop_row(std::size_t r) {
    const std::size_t last = rows_ - 1;
    if (r != last) {
      for (std::size_t c = 0; c <= cols_; ++c) at(r, c) = at(last, c);
      basis_[r] = basis_[last];
    }
    --rows_;
    basis_.resize(rows_);
    cells_.resize(rows_ * (cols_ + 1));
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> cells_;
  std::vector<std::size_t> basis_;
};

/// Price-out state for one phase: reduced-cost row + objective cell.
struct CostRow {
  std::vector<double> reduced;  // length cols
  double value = 0.0;           // current objective value (to be minimized)
};

CostRow build_cost_row(const Tableau& t, const std::vector<double>& costs) {
  CostRow cost;
  cost.reduced = costs;
  cost.reduced.resize(t.cols(), 0.0);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const double cb = costs.size() > t.basis(r) ? costs[t.basis(r)] : 0.0;
    if (cb == 0.0) continue;
    for (std::size_t c = 0; c < t.cols(); ++c) cost.reduced[c] -= cb * t.at(r, c);
    cost.value -= cb * t.rhs(r);
  }
  return cost;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs simplex iterations minimizing the phase objective in place.
PhaseResult run_phase(Tableau& t, CostRow& cost, const std::vector<bool>& allowed,
                      const SimplexOptions& options, std::size_t& iterations) {
  while (true) {
    if (iterations >= options.max_iterations) return PhaseResult::kIterationLimit;
    const bool use_bland = iterations >= options.bland_after;

    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland).
    std::size_t entering = t.cols();
    double best = -options.tolerance;
    for (std::size_t c = 0; c < t.cols(); ++c) {
      if (!allowed[c]) continue;
      const double rc = cost.reduced[c];
      if (rc < best) {
        entering = c;
        if (use_bland) break;
        best = rc;
      }
    }
    if (entering == t.cols()) return PhaseResult::kOptimal;

    // Ratio test: smallest rhs/coeff over positive coefficients; ties to
    // the smallest basis index (lexicographic-ish anti-cycling aid).
    std::size_t leaving = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double a = t.at(r, entering);
      if (a <= options.tolerance) continue;
      const double ratio = t.rhs(r) / a;
      if (ratio < best_ratio - options.tolerance ||
          (ratio < best_ratio + options.tolerance && leaving < t.rows() &&
           t.basis(r) < t.basis(leaving))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows()) return PhaseResult::kUnbounded;

    // Pivot, then price the cost row with the normalized pivot row.
    const double rc = cost.reduced[entering];
    t.pivot(leaving, entering);
    if (rc != 0.0) {
      for (std::size_t c = 0; c < t.cols(); ++c)
        cost.reduced[c] -= rc * t.at(leaving, c);
      cost.value -= rc * t.rhs(leaving);
    }
    cost.reduced[entering] = 0.0;  // exact by construction
    ++iterations;
  }
}

}  // namespace

LpSolution SimplexSolver::solve(const LpProblem& problem) const {
  const std::size_t n = problem.variable_count();
  LpSolution solution;

  // Quick bound-consistency screen (also handles the zero-row case).
  for (std::size_t v = 0; v < n; ++v)
    internal_check(problem.lower_bound(v) <= problem.upper_bound(v),
                   "SimplexSolver: inconsistent bounds");

  // Assemble the shifted row system. Every original row plus one upper
  // bound row per variable with up > lo (fixed variables contribute
  // constants only).
  struct NormRow {
    std::vector<LinearTerm> terms;
    RowSense sense;
    double rhs;
  };
  std::vector<NormRow> norm_rows;
  norm_rows.reserve(problem.row_count() + n);
  for (const Row& row : problem.rows()) {
    NormRow nr{{}, row.sense, row.rhs};
    for (const LinearTerm& term : row.terms) {
      const double lo = problem.lower_bound(term.var);
      nr.rhs -= term.coeff * lo;
      if (problem.upper_bound(term.var) > lo) nr.terms.push_back(term);
    }
    norm_rows.push_back(std::move(nr));
  }
  // Map from original variable to shifted column (fixed vars excluded).
  std::vector<std::size_t> column_of(n, static_cast<std::size_t>(-1));
  std::size_t n_cols = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (problem.upper_bound(v) > problem.lower_bound(v)) column_of[v] = n_cols++;
  for (NormRow& nr : norm_rows)
    for (LinearTerm& term : nr.terms) term.var = column_of[term.var];
  for (std::size_t v = 0; v < n; ++v) {
    if (column_of[v] == static_cast<std::size_t>(-1)) continue;
    norm_rows.push_back(NormRow{{LinearTerm{column_of[v], 1.0}},
                                RowSense::kLessEqual,
                                problem.upper_bound(v) - problem.lower_bound(v)});
  }

  // Flip rows to nonnegative rhs.
  for (NormRow& nr : norm_rows) {
    if (nr.rhs >= 0.0) continue;
    nr.rhs = -nr.rhs;
    for (LinearTerm& term : nr.terms) term.coeff = -term.coeff;
    if (nr.sense == RowSense::kLessEqual)
      nr.sense = RowSense::kGreaterEqual;
    else if (nr.sense == RowSense::kGreaterEqual)
      nr.sense = RowSense::kLessEqual;
  }

  // Column layout: [structural | slack/surplus | artificial].
  const std::size_t m = norm_rows.size();
  std::size_t n_slack = 0, n_artificial = 0;
  for (const NormRow& nr : norm_rows) {
    if (nr.sense != RowSense::kEqual) ++n_slack;
    if (nr.sense != RowSense::kLessEqual) ++n_artificial;
  }
  const std::size_t slack_base = n_cols;
  const std::size_t art_base = n_cols + n_slack;
  const std::size_t total_cols = n_cols + n_slack + n_artificial;

  Tableau t(m, total_cols);
  std::size_t next_slack = 0, next_artificial = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const NormRow& nr = norm_rows[r];
    for (const LinearTerm& term : nr.terms) t.at(r, term.var) += term.coeff;
    t.rhs(r) = nr.rhs;
    switch (nr.sense) {
      case RowSense::kLessEqual: {
        const std::size_t s = slack_base + next_slack++;
        t.at(r, s) = 1.0;
        t.set_basis(r, s);
        break;
      }
      case RowSense::kGreaterEqual: {
        const std::size_t s = slack_base + next_slack++;
        t.at(r, s) = -1.0;
        const std::size_t a = art_base + next_artificial++;
        t.at(r, a) = 1.0;
        t.set_basis(r, a);
        break;
      }
      case RowSense::kEqual: {
        const std::size_t a = art_base + next_artificial++;
        t.at(r, a) = 1.0;
        t.set_basis(r, a);
        break;
      }
    }
  }

  std::size_t iterations = 0;
  std::vector<bool> allow_all(total_cols, true);

  // Phase 1: minimize the sum of artificials.
  if (n_artificial > 0) {
    std::vector<double> phase1_costs(total_cols, 0.0);
    for (std::size_t a = art_base; a < total_cols; ++a) phase1_costs[a] = 1.0;
    CostRow cost = build_cost_row(t, phase1_costs);
    const PhaseResult pr = run_phase(t, cost, allow_all, options_, iterations);
    solution.iterations = iterations;
    if (pr == PhaseResult::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    internal_check(pr != PhaseResult::kUnbounded, "SimplexSolver: phase 1 unbounded");
    // cost.value tracks the standard tableau cell -z, so the phase-1
    // optimum (sum of artificials) is -cost.value.
    if (-cost.value > 1e-7) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Drive artificials out of the basis (or drop redundant rows).
    for (std::size_t r = 0; r < t.rows();) {
      if (t.basis(r) < art_base) {
        ++r;
        continue;
      }
      std::size_t col = total_cols;
      for (std::size_t c = 0; c < art_base; ++c) {
        if (std::abs(t.at(r, c)) > 1e-7) {
          col = c;
          break;
        }
      }
      if (col == total_cols) {
        t.drop_row(r);  // redundant constraint
      } else {
        t.pivot(r, col);
        ++r;
      }
    }
  }

  // Phase 2: original objective, artificial columns frozen.
  std::vector<bool> allowed(total_cols, true);
  for (std::size_t a = art_base; a < total_cols; ++a) allowed[a] = false;
  std::vector<double> costs(total_cols, 0.0);
  const double sign = problem.objective_direction() == Objective::kMinimize ? 1.0 : -1.0;
  for (const LinearTerm& term : problem.objective_terms()) {
    if (column_of[term.var] != static_cast<std::size_t>(-1))
      costs[column_of[term.var]] += sign * term.coeff;
  }
  CostRow cost = build_cost_row(t, costs);
  const PhaseResult pr = run_phase(t, cost, allowed, options_, iterations);
  solution.iterations = iterations;
  if (pr == PhaseResult::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }
  if (pr == PhaseResult::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }

  // Extract the original-variable values: x = lo + x'.
  std::vector<double> shifted(n_cols, 0.0);
  for (std::size_t r = 0; r < t.rows(); ++r)
    if (t.basis(r) < n_cols) shifted[t.basis(r)] = t.rhs(r);
  solution.values.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const double lo = problem.lower_bound(v);
    solution.values[v] =
        column_of[v] == static_cast<std::size_t>(-1) ? lo : lo + shifted[column_of[v]];
  }
  // Recompute the objective from the extracted point rather than from the
  // tableau bookkeeping: it is exact in the user's variable space.
  double raw = 0.0;
  for (const LinearTerm& term : problem.objective_terms())
    raw += term.coeff * solution.values[term.var];
  solution.objective = raw;
  solution.status = SolveStatus::kOptimal;
  return solution;
}

}  // namespace dpv::lp
