// Optimization-based bound tightening (OBBT) on the revised simplex.
//
// The one routine behind both per-neuron LP tightening while encoding
// (verify::BoundMethod::kLpTightening) and the verifier's per-query
// refresh of the layer-l column bounds. The problem is loaded into one
// lp::RevisedSimplex; each variable in turn gets its min and max LP by
// swapping the objective in place and re-optimizing from the basis the
// previous LP ended in (min -> max of one variable, then on to the
// next), the warm-started OBBT of Gleixner et al., "Three enhancements
// for optimization-based bound tightening", JOGO 2017. Each tightened
// box is written to both the solver and the problem before the next
// variable, so later LPs see it.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/lp_problem.hpp"
#include "lp/simplex.hpp"

namespace dpv::solver {

/// What one tighten_bounds call did.
struct TighteningResult {
  std::size_t lps = 0;         ///< LPs solved (a deadline-stopped LP is not)
  std::size_t iterations = 0;  ///< simplex iterations, deadline-stopped LP included
  std::size_t narrowed = 0;    ///< variables whose box shrank
  /// `options.run_control` expired before every variable was tightened.
  /// Every box is still sound, just possibly looser than a full pass.
  bool cut_short = false;
};

/// Tightens the boxes of `vars`, in order, to [min - 1e-9, max + 1e-9]
/// of each variable over the LP relaxation `problem` (intersected with
/// the current box). A bound moves only on an LP that ended optimal;
/// any other status keeps the current, sound bound. The problem's
/// objective is left untouched.
TighteningResult tighten_bounds(lp::LpProblem& problem, const std::vector<std::size_t>& vars,
                                const lp::SimplexOptions& options);

}  // namespace dpv::solver
