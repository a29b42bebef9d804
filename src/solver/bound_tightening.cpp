#include "solver/bound_tightening.hpp"

#include <algorithm>

#include "lp/revised_simplex.hpp"

namespace dpv::solver {

namespace {

/// Slack on every LP-derived bound, absorbing the simplex's own
/// feasibility tolerances.
constexpr double kBoundSlack = 1e-9;

}  // namespace

TighteningResult tighten_bounds(lp::LpProblem& problem, const std::vector<std::size_t>& vars,
                                const lp::SimplexOptions& options) {
  TighteningResult result;
  if (vars.empty()) return result;
  lp::RevisedSimplex simplex(options);
  simplex.load(problem);
  for (const std::size_t var : vars) {
    const double old_lo = problem.lower_bound(var);
    const double old_hi = problem.upper_bound(var);
    double lo = old_lo, hi = old_hi;
    for (const lp::Objective direction : {lp::Objective::kMinimize, lp::Objective::kMaximize}) {
      if (run_expired(options.run_control)) {
        result.cut_short = true;
        break;
      }
      simplex.set_objective({{var, 1.0}}, direction);
      const lp::LpSolution solution = simplex.reoptimize();
      result.iterations += solution.iterations;
      if (solution.status == lp::SolveStatus::kDeadline) {
        result.cut_short = true;
        break;
      }
      ++result.lps;
      if (solution.status != lp::SolveStatus::kOptimal) continue;
      if (direction == lp::Objective::kMinimize)
        lo = std::max(lo, solution.objective - kBoundSlack);
      else
        hi = std::min(hi, solution.objective + kBoundSlack);
    }
    if (lo > hi) lo = hi;  // numerical guard; keeps the box non-empty
    if (lo != old_lo || hi != old_hi) {
      problem.set_bounds(var, lo, hi);
      simplex.set_bounds(var, lo, hi);
    }
    if (hi - lo < old_hi - old_lo) ++result.narrowed;
    if (result.cut_short) break;
  }
  return result;
}

}  // namespace dpv::solver
