// Optimization-based bound tightening (solver::tighten_bounds) against
// the dense-tableau oracle (lp::SimplexSolver):
//   * the routine itself, on random boxed LPs, reproduces the per-variable
//     cold min/max loop it replaced;
//   * every LP-tightened box of an encoded tail (Dense and BatchNorm
//     layers, with S̃ difference and pair rows, LeakyReLU and ReLU blocks
//     in between) matches a dense-tableau replay of that layer;
//   * the verifier's per-query refresh over a widened delta trace
//     matches the same replay on the stamped problem;
//   * EncodingStats::tightening_lps counts the LPs actually solved.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "solver/bound_tightening.hpp"
#include "verify/delta.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kAgree = 1e-9;

/// The dense-tableau loop the routine replaced: one cold min and one
/// cold max LP per variable, in order, each tightened box written back
/// before the next variable.
void dense_tighten(lp::LpProblem& problem, const std::vector<std::size_t>& vars) {
  const lp::SimplexSolver solver;
  for (const std::size_t var : vars) {
    double lo = problem.lower_bound(var), hi = problem.upper_bound(var);
    problem.set_objective({{var, 1.0}}, lp::Objective::kMinimize);
    const lp::LpSolution min_sol = solver.solve(problem);
    if (min_sol.status == lp::SolveStatus::kOptimal) lo = std::max(lo, min_sol.objective - 1e-9);
    problem.set_objective({{var, 1.0}}, lp::Objective::kMaximize);
    const lp::LpSolution max_sol = solver.solve(problem);
    if (max_sol.status == lp::SolveStatus::kOptimal) hi = std::min(hi, max_sol.objective + 1e-9);
    if (lo > hi) lo = hi;
    problem.set_bounds(var, lo, hi);
  }
  problem.set_objective({}, lp::Objective::kMinimize);
}

void expect_same_bounds(const lp::LpProblem& got, const lp::LpProblem& oracle,
                        const std::vector<std::size_t>& vars, const char* label,
                        double tolerance = kAgree) {
  for (const std::size_t var : vars) {
    EXPECT_NEAR(got.lower_bound(var), oracle.lower_bound(var), tolerance)
        << label << " var " << var;
    EXPECT_NEAR(got.upper_bound(var), oracle.upper_bound(var), tolerance)
        << label << " var " << var;
  }
}

// ------------------------------------------------------- the routine

class TightenBoundsRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(TightenBoundsRandomLp, MatchesDenseLoop) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 10));
  lp::LpProblem problem;
  std::vector<double> point(n);
  for (std::size_t i = 0; i < n; ++i) {
    problem.add_variable(rng.uniform(-4.0, -0.5), rng.uniform(0.5, 4.0));
    point[i] = rng.uniform(-0.4, 0.4);
  }
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 2 * n));
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<lp::LinearTerm> terms;
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.uniform(0.0, 1.0) < 0.5) continue;
      const double a = rng.uniform(-2.0, 2.0);
      terms.push_back({c, a});
      activity += a * point[c];
    }
    if (terms.empty()) continue;
    if (rng.uniform(0.0, 1.0) < 0.2)
      problem.add_row(terms, lp::RowSense::kEqual, activity);
    else
      problem.add_row(terms, lp::RowSense::kLessEqual, activity + rng.uniform(0.0, 1.0));
  }
  std::vector<std::size_t> vars(n);
  for (std::size_t i = 0; i < n; ++i) vars[i] = i;

  lp::LpProblem oracle = problem;
  dense_tighten(oracle, vars);
  const solver::TighteningResult result = solver::tighten_bounds(problem, vars, {});
  // On these unstructured LPs the oracle's own stopping tolerance moves
  // its optima by a few 1e-9 (the revised solver's basis is verified
  // optimal to ~1e-16), so the agreement checked here is 1e-8.
  expect_same_bounds(problem, oracle, vars, "random LP", 1e-8);
  EXPECT_EQ(result.lps, 2 * n);
  EXPECT_FALSE(result.cut_short);
  EXPECT_TRUE(problem.objective_terms().empty());  // objective untouched
}

INSTANTIATE_TEST_SUITE_P(Seeds, TightenBoundsRandomLp, ::testing::Range(0, 30));

TEST(TightenBounds, ExpiredControlSolvesNothingAndKeepsBoxes) {
  lp::LpProblem problem;
  const std::size_t x = problem.add_variable(-1.0, 1.0);
  const std::size_t y = problem.add_variable(-1.0, 1.0);
  problem.add_row({{x, 1.0}, {y, 1.0}}, lp::RowSense::kLessEqual, 0.5);
  RunControl expired;
  expired.cancel();
  lp::SimplexOptions options;
  options.run_control = &expired;
  const solver::TighteningResult result = solver::tighten_bounds(problem, {x, y}, options);
  EXPECT_TRUE(result.cut_short);
  EXPECT_EQ(result.lps, 0u);
  EXPECT_EQ(problem.lower_bound(x), -1.0);
  EXPECT_EQ(problem.upper_bound(y), 1.0);
}

// ------------------------------------------------ encoder tail boxes

/// Dense(4,6) -> BatchNorm -> LeakyReLU -> Dense(6,5) -> ReLU -> Dense(5,2).
nn::Network make_mixed_tail(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(4, 6);
  d1->init_he(rng);
  net.add(std::move(d1));
  auto bn = std::make_unique<nn::BatchNorm>(6);
  Tensor mean(Shape{6}), var(Shape{6}), gamma(Shape{6}), beta(Shape{6});
  for (std::size_t i = 0; i < 6; ++i) {
    mean[i] = rng.uniform(-0.3, 0.3);
    var[i] = rng.uniform(0.5, 2.0);
    gamma[i] = rng.uniform(0.5, 1.5) * (i % 3 == 0 ? -1.0 : 1.0);
    beta[i] = rng.uniform(-0.2, 0.2);
  }
  bn->set_statistics(std::move(mean), std::move(var));
  bn->set_affine(std::move(gamma), std::move(beta));
  net.add(std::move(bn));
  net.add(std::make_unique<nn::LeakyReLU>(Shape{6}, 0.1));
  auto d2 = std::make_unique<nn::Dense>(6, 5);
  d2->init_he(rng);
  net.add(std::move(d2));
  net.add(std::make_unique<nn::ReLU>(Shape{5}));
  auto d3 = std::make_unique<nn::Dense>(5, 2);
  d3->init_he(rng);
  net.add(std::move(d3));
  return net;
}

verify::VerificationQuery make_mixed_query(const nn::Network& net, Rng& rng) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(4, -1.0, 1.0);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    const double c = rng.uniform(-0.5, 0.5);
    q.diff_bounds.push_back(absint::Interval(c - 0.8, c + 0.8));
  }
  q.pair_bounds.push_back({0, 3, absint::Interval(-0.6, 0.9)});
  q.risk.output_at_least(0, 2, 0.0);
  return q;
}

/// Replays the dense-tableau path for tail layer `k` (a Dense or
/// BatchNorm layer) of `enc`: the rows that existed when the layer was
/// tightened (every row over variables up to the layer's last one),
/// earlier variables at their final boxes, the layer's own variables at
/// the interval boxes the encoder started them from, then
/// dense_tighten over the layer.
lp::LpProblem replay_layer(const verify::TailEncoding& enc, const nn::Network& net,
                           const absint::Box& in_box, std::size_t k) {
  const std::vector<std::size_t>& vars = enc.realized_tail_vars[k];
  absint::Box start(vars.size());
  const nn::Layer& layer = net.layer(k);
  if (layer.kind() == nn::LayerKind::kDense) {
    const auto& dense = static_cast<const nn::Dense&>(layer);
    for (std::size_t r = 0; r < vars.size(); ++r) {
      absint::Interval acc(dense.bias()[r], dense.bias()[r]);
      for (std::size_t c = 0; c < in_box.size(); ++c)
        acc = acc + absint::scale(in_box[c], dense.weight().at2(r, c));
      start[r] = acc;
    }
  } else {
    const auto& bn = static_cast<const nn::BatchNorm&>(layer);
    for (std::size_t i = 0; i < vars.size(); ++i)
      start[i] = absint::shift(absint::scale(in_box[i], bn.effective_scale(i)),
                               bn.effective_shift(i));
  }
  const lp::LpProblem& full = enc.problem.relaxation();
  const std::size_t last = *std::max_element(vars.begin(), vars.end());
  lp::LpProblem prefix;
  for (std::size_t v = 0; v <= last; ++v)
    prefix.add_variable(full.lower_bound(v), full.upper_bound(v));
  for (std::size_t i = 0; i < vars.size(); ++i)
    prefix.set_bounds(vars[i], start[i].lo, start[i].hi);
  for (const lp::Row& row : full.rows()) {
    const bool early = std::all_of(row.terms.begin(), row.terms.end(),
                                   [last](const lp::LinearTerm& t) { return t.var <= last; });
    if (early) prefix.add_row(row.terms, row.sense, row.rhs);
  }
  dense_tighten(prefix, vars);
  return prefix;
}

class ObbtTailOracle : public ::testing::TestWithParam<int> {};

TEST_P(ObbtTailOracle, RealizedBoxesMatchDenseReplay) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  const nn::Network net = make_mixed_tail(rng);
  const verify::VerificationQuery q = make_mixed_query(net, rng);
  verify::EncodeOptions options;
  options.bounds = verify::BoundMethod::kLpTightening;
  const verify::TailEncoding enc = verify::encode_tail_base(q, options);
  ASSERT_EQ(enc.realized_tail_boxes.size(), net.layer_count());

  std::size_t tightened = 0;
  for (std::size_t k = 0; k < net.layer_count(); ++k) {
    const nn::LayerKind kind = net.layer(k).kind();
    if (kind != nn::LayerKind::kDense && kind != nn::LayerKind::kBatchNorm) continue;
    const absint::Box& in_box = k == 0 ? q.input_box : enc.realized_tail_boxes[k - 1];
    const lp::LpProblem oracle = replay_layer(enc, net, in_box, k);
    const std::vector<std::size_t>& vars = enc.realized_tail_vars[k];
    for (std::size_t i = 0; i < vars.size(); ++i) {
      EXPECT_NEAR(enc.realized_tail_boxes[k][i].lo, oracle.lower_bound(vars[i]), kAgree)
          << "seed " << GetParam() << " layer " << k << " neuron " << i;
      EXPECT_NEAR(enc.realized_tail_boxes[k][i].hi, oracle.upper_bound(vars[i]), kAgree)
          << "seed " << GetParam() << " layer " << k << " neuron " << i;
    }
    tightened += vars.size();
  }
  // Dense 6 + BatchNorm 6 + Dense 5 + Dense 2 neurons, two LPs each, all solved.
  EXPECT_EQ(tightened, 19u);
  EXPECT_EQ(enc.stats.tightening_lps, 2 * tightened);
  EXPECT_GT(enc.stats.tightening_iterations, 0u);
  EXPECT_FALSE(enc.stats.cut_short);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObbtTailOracle, ::testing::Range(0, 8));

// ------------------------------------- refresh over a widened trace

nn::Network make_relu_tail(std::size_t width, Rng& rng) {
  nn::Network net;
  for (int d = 0; d < 2; ++d) {
    auto dense = std::make_unique<nn::Dense>(width, width);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{width}));
  }
  auto out = std::make_unique<nn::Dense>(width, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

TEST(ObbtRefreshOracle, WidenedTraceRefreshMatchesDenseReplay) {
  Rng rng(29);
  const std::size_t width = 6;
  const nn::Network net = make_relu_tail(width, rng);
  nn::Network updated = net.clone();
  {
    auto& last = dynamic_cast<nn::Dense&>(updated.layer(updated.layer_count() - 1));
    Tensor w = last.weight();
    for (std::size_t i = 0; i < w.numel(); ++i) w[i] += 3e-3 * (static_cast<double>(i % 3) - 1.0);
    last.set_parameters(std::move(w), last.bias());
  }
  verify::TailVerifierOptions lp_options;
  lp_options.encode.bounds = verify::BoundMethod::kLpTightening;

  // Thresholds between the sampled output maximum and the root LP
  // bound, where the risk rows cut into the layer-l box.
  verify::VerificationQuery probe;
  probe.network = &net;
  probe.input_box = absint::uniform_box(width, -1.0, 1.0);
  probe.risk.output_at_least(0, 2, -1e9);
  verify::TailEncoding root = verify::encode_tail_query(probe, lp_options.encode);
  root.problem.relaxation().set_objective({{root.output_vars[0], 1.0}},
                                          lp::Objective::kMaximize);
  const lp::LpSolution root_max = lp::SimplexSolver().solve(root.problem.relaxation());
  ASSERT_EQ(root_max.status, lp::SolveStatus::kOptimal);
  double sampled_max = -1e100;
  for (int i = 0; i < 400; ++i) {
    Tensor x(Shape{width});
    for (std::size_t j = 0; j < width; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }

  std::size_t narrowed = 0;
  for (const double alpha : {0.3, 0.6, 0.9}) {
    const double threshold = sampled_max + alpha * (root_max.objective - sampled_max);
    verify::VerificationQuery q;
    q.network = &net;
    q.input_box = absint::uniform_box(width, -1.0, 1.0);
    q.risk.output_at_least(0, 2, threshold);
    verify::TailVerifierOptions harvesting = lp_options;
    verify::DeltaHarvest harvest;
    harvesting.harvest = &harvest;
    const verify::VerificationResult base = verify::TailVerifier(harvesting).verify(q);
    ASSERT_TRUE(harvest.captured);
    verify::DeltaArtifacts bundle = verify::make_base_artifacts(net, 0);
    bundle.upsert(verify::harvest_to_artifacts(1, q, base, std::move(harvest)));

    verify::VerificationQuery uq = q;
    uq.network = &updated;
    const verify::DeltaPlan plan =
        verify::plan_delta_reuse(bundle, *bundle.find(1), net, updated, uq, {});
    ASSERT_TRUE(plan.usable);
    ASSERT_EQ(plan.trace, verify::TraceReuse::kWidened);
    verify::TailVerifierOptions reuse = lp_options;
    plan.apply(reuse);
    reuse.refresh_query_bounds = true;

    // The problem the refresh sees, tightened both ways.
    verify::TailEncoding enc = verify::encode_tail_query(uq, reuse.encode);
    lp::LpProblem oracle = enc.problem.relaxation();
    dense_tighten(oracle, enc.input_vars);
    const solver::TighteningResult refreshed =
        solver::tighten_bounds(enc.problem.relaxation(), enc.input_vars, {});
    expect_same_bounds(enc.problem.relaxation(), oracle, enc.input_vars, "refresh");
    narrowed += refreshed.narrowed;

    // verify() runs exactly this refresh on exactly this problem.
    const verify::VerificationResult r = verify::TailVerifier(reuse).verify(uq);
    EXPECT_EQ(r.refreshed_bounds, refreshed.narrowed) << "threshold " << threshold;
  }
  EXPECT_GT(narrowed, 0u);  // the risk rows cut the layer-l box somewhere
}

}  // namespace
}  // namespace dpv
