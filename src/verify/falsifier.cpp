#include "verify/falsifier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "absint/box_domain.hpp"
#include "absint/zonotope.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace dpv::verify {

namespace {

/// Clamp an activation-space candidate into the query box.
void clamp_to_box(Tensor& x, const absint::Box& box) {
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = std::clamp(x[i], box[i].lo, box[i].hi);
}

/// One PGD descent on the hinge loss from `start`; returns true (and
/// leaves the witness in `x`) as soon as a candidate validates.
bool pgd_descend(const VerificationQuery& query, const FalsifyOptions& options, Tensor& x,
                 FalsifyReport& report) {
  const nn::Network& net = *query.network;
  const std::size_t layer_count = net.layer_count();
  const std::size_t n = query.input_box.size();
  // Aim strictly inside the feasible region: every hinge targets `goal`
  // slack, comfortably above the validation margin.
  const double goal = std::max(1e-6, 10.0 * options.require_margin);

  auto validate = [&](const Tensor& cand) {
    Tensor output;
    double logit = 0.0;
    if (!validate_witness(query, cand, options.require_margin, &output, &logit)) return false;
    report.falsified = true;
    report.counterexample_activation = cand;
    report.counterexample_output = std::move(output);
    report.characterizer_logit = logit;
    return true;
  };

  if (validate(x)) return true;

  const std::size_t out_dim = net.output_shape().numel();
  for (std::size_t step = 0; step < options.steps; ++step) {
    // Risk hinges, back-propagated through the tail.
    Tensor gx(Shape{n});
    const Tensor y = net.forward_suffix(x, query.attach_layer);
    Tensor gy(Shape{out_dim});
    bool any_risk = false;
    for (const OutputInequality& ineq : query.risk.inequalities()) {
      if (ineq.margin(y) >= goal) continue;
      any_risk = true;
      const std::size_t m = std::min(ineq.coeffs.size(), static_cast<std::size_t>(out_dim));
      // d(-margin)/dy: push the lhs toward the feasible side.
      double dir = 0.0;
      switch (ineq.sense) {
        case lp::RowSense::kLessEqual:
          dir = 1.0;
          break;
        case lp::RowSense::kGreaterEqual:
          dir = -1.0;
          break;
        case lp::RowSense::kEqual:
          dir = ineq.lhs(y) > ineq.rhs ? 1.0 : -1.0;
          break;
      }
      for (std::size_t i = 0; i < m; ++i) gy[i] += dir * ineq.coeffs[i];
    }
    if (any_risk) {
      const Tensor g = net.input_gradient(x, gy, query.attach_layer, layer_count);
      for (std::size_t i = 0; i < n; ++i) gx[i] += g[i];
    }

    // Characterizer hinge: raise the logit toward the threshold.
    if (query.characterizer != nullptr) {
      const Tensor logit = query.characterizer->forward(x);
      if (logit[0] - query.characterizer_threshold < goal) {
        Tensor gl(Shape{logit.numel()});
        gl[0] = -1.0;
        const Tensor g = query.characterizer->input_gradient(x, gl);
        for (std::size_t i = 0; i < n; ++i) gx[i] += g[i];
      }
    }

    // Relational hinges are linear in x directly.
    for (std::size_t i = 0; i < query.diff_bounds.size(); ++i) {
      const double d = x[i + 1] - x[i];
      if (d > query.diff_bounds[i].hi) {
        gx[i + 1] += 1.0;
        gx[i] -= 1.0;
      } else if (d < query.diff_bounds[i].lo) {
        gx[i + 1] -= 1.0;
        gx[i] += 1.0;
      }
    }
    for (const PairConstraint& pc : query.pair_bounds) {
      const double d = x[pc.second] - x[pc.first];
      if (d > pc.bounds.hi) {
        gx[pc.second] += 1.0;
        gx[pc.first] -= 1.0;
      } else if (d < pc.bounds.lo) {
        gx[pc.second] -= 1.0;
        gx[pc.first] += 1.0;
      }
    }

    // Signed step scaled per dimension by the box width, then project.
    for (std::size_t i = 0; i < n; ++i) {
      double width = query.input_box[i].width();
      if (!std::isfinite(width) || width > 1e6) width = 1e6;
      const double sign = gx[i] > 0.0 ? 1.0 : (gx[i] < 0.0 ? -1.0 : 0.0);
      x[i] -= kAttackStepScale * width * sign;
    }
    clamp_to_box(x, query.input_box);
    if (validate(x)) return true;
  }
  return false;
}

/// Range of coeffs·y over a zonotope: support function of the affine
/// form, c·center ± sum_k |c·g_k|.
absint::Interval linear_range(const absint::Zonotope& z, const std::vector<double>& coeffs) {
  const std::size_t m = std::min(coeffs.size(), z.center().size());
  double mid = 0.0;
  for (std::size_t i = 0; i < m; ++i) mid += coeffs[i] * z.center()[i];
  double radius = 0.0;
  for (const std::vector<double>& g : z.generators()) {
    double dot = 0.0;
    for (std::size_t i = 0; i < m; ++i) dot += coeffs[i] * g[i];
    radius += std::abs(dot);
  }
  return absint::Interval(mid - radius, mid + radius);
}

/// Range of coeffs·y over a box (interval dot product).
absint::Interval linear_range(const absint::Box& box, const std::vector<double>& coeffs) {
  const std::size_t m = std::min(coeffs.size(), box.size());
  absint::Interval acc(0.0, 0.0);
  for (std::size_t i = 0; i < m; ++i) acc = acc + absint::scale(box[i], coeffs[i]);
  return acc;
}

/// True when no point of `range` satisfies the inequality.
bool unsatisfiable_over(const OutputInequality& ineq, const absint::Interval& range) {
  switch (ineq.sense) {
    case lp::RowSense::kLessEqual:
      return range.lo > ineq.rhs;
    case lp::RowSense::kGreaterEqual:
      return range.hi < ineq.rhs;
    case lp::RowSense::kEqual:
      return !range.contains(ineq.rhs);
  }
  return false;
}

}  // namespace

bool validate_witness(const VerificationQuery& query, const Tensor& activation,
                      double require_margin, Tensor* output, double* logit) {
  const std::size_t n = query.input_box.size();
  if (activation.numel() != n) return false;
  for (std::size_t i = 0; i < n; ++i)
    if (activation[i] < query.input_box[i].lo || activation[i] > query.input_box[i].hi)
      return false;
  for (std::size_t i = 0; i < query.diff_bounds.size(); ++i) {
    const double d = activation[i + 1] - activation[i];
    if (d < query.diff_bounds[i].lo || d > query.diff_bounds[i].hi) return false;
  }
  for (const PairConstraint& pc : query.pair_bounds) {
    if (pc.first >= n || pc.second >= n) return false;
    const double d = activation[pc.second] - activation[pc.first];
    if (d < pc.bounds.lo || d > pc.bounds.hi) return false;
  }

  const Tensor y = query.network->forward_suffix(activation, query.attach_layer);
  if (output != nullptr) *output = y;
  if (query.characterizer != nullptr) {
    const Tensor l = query.characterizer->forward(activation);
    if (logit != nullptr) *logit = l[0];
    if (l[0] < query.characterizer_threshold + require_margin) return false;
  }
  return query.risk.min_margin(y) >= require_margin;
}

FalsifyReport falsify_query(const VerificationQuery& query, const FalsifyOptions& options) {
  check(query.network != nullptr, "falsify_query: null network");
  const std::size_t n = query.input_box.size();
  FalsifyReport report;

  // Recycled seed points first: a MILP counterexample from a sibling
  // query or a frontier near-miss is usually one clamp away from a
  // validated witness here.
  const std::size_t seed_count = std::min(options.seed_points.size(), kMaxSeedPoints);
  for (std::size_t s = 0; s < seed_count && !report.falsified; ++s) {
    if (run_expired(options.run_control)) return report;  // sound: just "not falsified"
    if (options.seed_points[s].numel() != n) continue;
    Tensor x = options.seed_points[s];
    clamp_to_box(x, query.input_box);
    ++report.seeds_tried;
    ++report.starts;
    if (pgd_descend(query, options, x, report)) return report;
  }

  // Box midpoint, then deterministic random starts.
  Rng rng(options.seed);
  for (std::size_t r = 0; r < std::max<std::size_t>(options.restarts, 1); ++r) {
    if (run_expired(options.run_control)) return report;
    Tensor x(Shape{n});
    if (r == 0) {
      for (std::size_t i = 0; i < n; ++i) x[i] = query.input_box[i].midpoint();
    } else {
      for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.uniform(query.input_box[i].lo, query.input_box[i].hi);
    }
    ++report.starts;
    if (pgd_descend(query, options, x, report)) return report;
  }
  return report;
}

BoundProofReport prove_by_bounds(const VerificationQuery& query, const FalsifyOptions&) {
  check(query.network != nullptr, "prove_by_bounds: null network");
  const nn::Network& net = *query.network;
  const std::size_t layer_count = net.layer_count();
  BoundProofReport report;

  // Sound over the box alone: the box is a superset of the feasible set
  // (diff/pair rows only cut it down), so an unsatisfiable inequality
  // over the box's output range is unsatisfiable over S̃ too.
  const bool tail_zono = absint::zonotope_supported(net, query.attach_layer, layer_count);
  absint::Zonotope tail_range_z = absint::Zonotope::from_box(query.input_box);
  absint::Box tail_range_box;
  if (tail_zono) {
    tail_range_z = absint::propagate_zonotope_range(net, tail_range_z, query.attach_layer,
                                                    layer_count, kZonotopeGeneratorBudget);
  } else {
    tail_range_box =
        absint::propagate_box_range(net, query.input_box, query.attach_layer, layer_count);
  }
  report.used_zonotope = tail_zono;

  const std::vector<OutputInequality>& ineqs = query.risk.inequalities();
  for (std::size_t i = 0; i < ineqs.size(); ++i) {
    const absint::Interval range = tail_zono ? linear_range(tail_range_z, ineqs[i].coeffs)
                                             : linear_range(tail_range_box, ineqs[i].coeffs);
    if (unsatisfiable_over(ineqs[i], range)) {
      report.proved_safe = true;
      report.reason = "risk inequality " + std::to_string(i) + " (" + ineqs[i].to_string() +
                      ") unsatisfiable over output range " + range.to_string();
      return report;
    }
  }

  if (query.characterizer != nullptr) {
    const nn::Network& h = *query.characterizer;
    absint::Interval logit_range;
    bool char_zono = absint::zonotope_supported(h, 0, h.layer_count());
    if (char_zono) {
      const absint::Zonotope hz = absint::propagate_zonotope_range(
          h, absint::Zonotope::from_box(query.input_box), 0, h.layer_count(),
          kZonotopeGeneratorBudget);
      logit_range = hz.to_box()[0];
    } else {
      logit_range = absint::propagate_box_range(h, query.input_box, 0, h.layer_count())[0];
    }
    report.used_zonotope = report.used_zonotope || char_zono;
    if (logit_range.hi < query.characterizer_threshold) {
      report.proved_safe = true;
      report.reason = "characterizer logit bounded by " + std::to_string(logit_range.hi) +
                      " < threshold " + std::to_string(query.characterizer_threshold);
      return report;
    }
  }
  return report;
}

}  // namespace dpv::verify
