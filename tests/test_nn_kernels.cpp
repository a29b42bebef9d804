// Differential tests of the conv / pool / dense kernels against naive
// reference loops (bounds-checked Tensor::at3 / at2 indexing, one output
// at a time), of parallel training batches against one-sample batches,
// plus a training determinism check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "nn/conv2d.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pool2d.hpp"
#include "nn/serialize.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::nn {
namespace {

constexpr double kRelTol = 1e-12;

// Norm-wise relative error max|a - b| / max|b|.
double rel_error(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double diff = 0.0, scale = std::numeric_limits<double>::min();
  for (std::size_t i = 0; i < b.numel(); ++i) {
    diff = std::max(diff, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return diff / scale;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(a[i], b[i]) << "element " << i;
}

// ---- naive reference: the per-output checked loops ---------------------

struct ConvGeom {
  std::size_t in_ch, in_h, in_w, out_ch, kernel, stride, padding;
  std::size_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  // Input cell under tap (kr, kc) of output (orow, ocol); false in padding.
  bool source(std::size_t orow, std::size_t ocol, std::size_t kr, std::size_t kc,
              std::size_t& r, std::size_t& c) const {
    const long rr = static_cast<long>(orow * stride + kr) - static_cast<long>(padding);
    const long cc = static_cast<long>(ocol * stride + kc) - static_cast<long>(padding);
    if (rr < 0 || cc < 0 || rr >= static_cast<long>(in_h) || cc >= static_cast<long>(in_w))
      return false;
    r = static_cast<std::size_t>(rr);
    c = static_cast<std::size_t>(cc);
    return true;
  }
  std::size_t widx(std::size_t oc, std::size_t ic, std::size_t kr, std::size_t kc) const {
    return ((oc * in_ch + ic) * kernel + kr) * kernel + kc;
  }
};

Tensor ref_conv_forward(const ConvGeom& g, const Tensor& w, const Tensor& b, const Tensor& x) {
  Tensor y(Shape{g.out_ch, g.out_h(), g.out_w()});
  for (std::size_t oc = 0; oc < g.out_ch; ++oc)
    for (std::size_t orow = 0; orow < g.out_h(); ++orow)
      for (std::size_t ocol = 0; ocol < g.out_w(); ++ocol) {
        double acc = b[oc];
        for (std::size_t ic = 0; ic < g.in_ch; ++ic)
          for (std::size_t kr = 0; kr < g.kernel; ++kr)
            for (std::size_t kc = 0; kc < g.kernel; ++kc) {
              std::size_t r, c;
              if (g.source(orow, ocol, kr, kc, r, c))
                acc += w[g.widx(oc, ic, kr, kc)] * x.at3(ic, r, c);
            }
        y.at3(oc, orow, ocol) = acc;
      }
  return y;
}

// Input, weight and bias gradients of one sample.
struct ConvGrads {
  Tensor gx, gw, gb;
};

ConvGrads ref_conv_backward(const ConvGeom& g, const Tensor& w, const Tensor& x,
                            const Tensor& gy) {
  ConvGrads out{Tensor(Shape{g.in_ch, g.in_h, g.in_w}), Tensor(w.shape()),
                Tensor(Shape{g.out_ch})};
  for (std::size_t oc = 0; oc < g.out_ch; ++oc)
    for (std::size_t orow = 0; orow < g.out_h(); ++orow)
      for (std::size_t ocol = 0; ocol < g.out_w(); ++ocol) {
        const double d = gy.at3(oc, orow, ocol);
        out.gb[oc] += d;
        for (std::size_t ic = 0; ic < g.in_ch; ++ic)
          for (std::size_t kr = 0; kr < g.kernel; ++kr)
            for (std::size_t kc = 0; kc < g.kernel; ++kc) {
              std::size_t r, c;
              if (!g.source(orow, ocol, kr, kc, r, c)) continue;
              out.gw[g.widx(oc, ic, kr, kc)] += d * x.at3(ic, r, c);
              out.gx.at3(ic, r, c) += d * w[g.widx(oc, ic, kr, kc)];
            }
      }
  return out;
}

// ---- Conv2D sweep -------------------------------------------------------

// (stride, padding, kernel, shape variant)
class ConvKernelSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, int>> {
 protected:
  ConvGeom geom() const {
    const auto [stride, padding, kernel, variant] = GetParam();
    // Non-square, multi-channel; variant 1 is wide, variant 0 tall.
    return variant == 0 ? ConvGeom{2, 9, 6, 3, kernel, stride, padding}
                        : ConvGeom{3, 5, 11, 2, kernel, stride, padding};
  }
};

TEST_P(ConvKernelSweep, MatchesNaiveReference) {
  const ConvGeom g = geom();
  Rng rng(1000 + g.kernel * 100 + g.stride * 10 + g.padding);
  Conv2D conv(g.in_ch, g.in_h, g.in_w, g.out_ch, g.kernel, g.stride, g.padding);
  const Tensor w = Tensor::randn(Shape{g.out_ch * g.in_ch * g.kernel * g.kernel}, rng, 1.0);
  const Tensor b = Tensor::randn(Shape{g.out_ch}, rng, 1.0);
  conv.set_parameters(w, b);
  ASSERT_EQ(conv.output_shape(), (Shape{g.out_ch, g.out_h(), g.out_w()}));

  // Two samples so the parameter gradients accumulate across a batch.
  const std::vector<Tensor> xs = {Tensor::randn(conv.input_shape(), rng, 1.0),
                                  Tensor::randn(conv.input_shape(), rng, 1.0)};
  const std::vector<Tensor> gys = {Tensor::randn(conv.output_shape(), rng, 1.0),
                                   Tensor::randn(conv.output_shape(), rng, 1.0)};

  for (const Tensor& x : xs) {
    const Tensor y = conv.forward(x);
    EXPECT_LT(rel_error(y, ref_conv_forward(g, w, b, x)), kRelTol);
    // A flat input of the right size is accepted as the same sample.
    expect_bitwise_equal(conv.forward(x.reshaped(Shape{x.numel()})), y);
  }

  const std::vector<Tensor> ys = conv.forward_batch(xs, /*training=*/true);
  for (std::size_t s = 0; s < xs.size(); ++s) expect_bitwise_equal(ys[s], conv.forward(xs[s]));

  conv.zero_grad();
  const std::vector<Tensor> gxs = conv.backward_batch(gys);
  Tensor ref_gw(w.shape()), ref_gb(b.shape());
  for (std::size_t s = 0; s < xs.size(); ++s) {
    const ConvGrads ref = ref_conv_backward(g, w, xs[s], gys[s]);
    EXPECT_LT(rel_error(gxs[s], ref.gx), kRelTol) << "backward_sample input grad " << s;
    EXPECT_LT(rel_error(conv.backward_input(xs[s], gys[s]), ref.gx), kRelTol)
        << "backward_input " << s;
    for (std::size_t i = 0; i < ref_gw.numel(); ++i) ref_gw[i] += ref.gw[i];
    for (std::size_t i = 0; i < ref_gb.numel(); ++i) ref_gb[i] += ref.gb[i];
  }
  const std::vector<ParamRef> params = conv.params();
  EXPECT_LT(rel_error(*params[0].grad, ref_gw), kRelTol) << "weight grad";
  EXPECT_LT(rel_error(*params[1].grad, ref_gb), kRelTol) << "bias grad";
}

INSTANTIATE_TEST_SUITE_P(StridePaddingKernel, ConvKernelSweep,
                         ::testing::Combine(::testing::Values<std::size_t>(1, 2),
                                            ::testing::Values<std::size_t>(0, 1, 2),
                                            ::testing::Values<std::size_t>(1, 3, 5),
                                            ::testing::Values(0, 1)));

// Summing {1, 1e-16, 1e-16, -1} left to right gives exactly 0, while the
// reversed order (or any order adding -1 before a 1e-16) leaves about
// 2e-16. With unit weights and inputs every product is exact, so this
// pins the accumulation order of each kernel.
TEST(ConvKernel, AccumulationOrderIsPinned) {
  Conv2D conv(1, 3, 3, 1, 2, 1, 0);  // 2 x 2 output
  const Tensor ones(Shape{1, 3, 3}, std::vector<double>(9, 1.0));
  const Tensor g(Shape{1, 2, 2}, {1.0, 1e-16, 1e-16, -1.0});

  // Forward: bias, then taps in (ic, kr, kc) order.
  conv.set_parameters(Tensor(Shape{4}, {1e-16, 1e-16, -1.0, 0.0}), Tensor::vector1d({1.0}));
  EXPECT_EQ(conv.forward(ones)[0], 0.0);

  // Input gradient: the centre cell sees outputs (0,0), (0,1), (1,0),
  // (1,1) in that order.
  conv.set_parameters(Tensor(Shape{4}, std::vector<double>(4, 1.0)), Tensor::vector1d({0.0}));
  EXPECT_EQ(conv.backward_input(ones, g).at3(0, 1, 1), 0.0);

  // Weight gradient: each tap sums the output cells in row-major order.
  conv.forward_batch({ones}, /*training=*/true);
  conv.zero_grad();
  conv.backward_batch({g});
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ((*conv.params()[0].grad)[t], 0.0) << "tap " << t;
}

TEST(ConvKernel, WrongSizeTensorsThrowNamingTheLayer) {
  Conv2D conv(2, 4, 5, 3, 3, 1, 1);
  const Tensor x(conv.input_shape());
  for (const Tensor& bad : {Tensor(Shape{2, 4, 4}), Tensor(Shape{41})}) {
    try {
      conv.forward(bad);
      FAIL() << "forward accepted " << bad.shape().to_string();
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("Conv2D"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(conv.backward_input(x, Tensor(Shape{3, 4, 4})), ContractViolation);
  conv.forward_batch({x}, /*training=*/true);
  EXPECT_THROW(conv.backward_batch({Tensor(Shape{3, 4, 4})}), ContractViolation);
}

// ---- pooling ------------------------------------------------------------

Tensor ref_max_pool(const Tensor& x, std::size_t window, std::vector<std::size_t>& argmax) {
  const auto& d = x.shape().dims();
  Tensor y(Shape{d[0], d[1] / window, d[2] / window});
  argmax.clear();
  for (std::size_t c = 0; c < d[0]; ++c)
    for (std::size_t orow = 0; orow < d[1] / window; ++orow)
      for (std::size_t ocol = 0; ocol < d[2] / window; ++ocol) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t wr = 0; wr < window; ++wr)
          for (std::size_t wc = 0; wc < window; ++wc) {
            const std::size_t r = orow * window + wr, col = ocol * window + wc;
            if (x.at3(c, r, col) > best) {
              best = x.at3(c, r, col);
              best_idx = (c * d[1] + r) * d[2] + col;
            }
          }
        y.at3(c, orow, ocol) = best;
        argmax.push_back(best_idx);
      }
  return y;
}

TEST(PoolKernel, MaxPoolMatchesReference) {
  Rng rng(5);
  for (const std::size_t window : {1, 2, 3}) {
    MaxPool2D pool(3, 6, 12, window);
    const Tensor x = Tensor::randn(pool.input_shape(), rng, 1.0);
    const Tensor gy = Tensor::randn(pool.output_shape(), rng, 1.0);
    std::vector<std::size_t> argmax;
    const Tensor ref = ref_max_pool(x, window, argmax);
    Tensor ref_gx(pool.input_shape());
    for (std::size_t i = 0; i < argmax.size(); ++i) ref_gx[argmax[i]] += gy[i];

    expect_bitwise_equal(pool.forward(x), ref);
    expect_bitwise_equal(pool.forward_batch({x}, /*training=*/true)[0], ref);
    expect_bitwise_equal(pool.backward_batch({gy})[0], ref_gx);
    expect_bitwise_equal(pool.backward_input(x, gy), ref_gx);
  }
}

TEST(PoolKernel, MaxPoolTiesGoToFirstWindowCell) {
  MaxPool2D pool(1, 2, 4, 2);
  // Window 0 is all ties; window 1 ties its last two cells above the rest.
  const Tensor x(pool.input_shape(), {1.0, 1.0, 0.0, 0.0,  //
                                      1.0, 1.0, 3.0, 3.0});
  const Tensor gy(pool.output_shape(), {1.0, 1.0});
  const Tensor expected(pool.input_shape(), {1.0, 0.0, 0.0, 0.0,  //
                                             0.0, 0.0, 1.0, 0.0});
  expect_bitwise_equal(pool.backward_input(x, gy), expected);
  pool.forward_batch({x}, /*training=*/true);
  expect_bitwise_equal(pool.backward_batch({gy})[0], expected);
}

TEST(PoolKernel, AvgPoolMatchesReference) {
  Rng rng(6);
  AvgPool2D pool(2, 6, 9, 3);
  const Tensor x = Tensor::randn(pool.input_shape(), rng, 1.0);
  const Tensor gy = Tensor::randn(pool.output_shape(), rng, 1.0);
  Tensor ref(pool.output_shape());
  Tensor ref_gx(pool.input_shape());
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t orow = 0; orow < 2; ++orow)
      for (std::size_t ocol = 0; ocol < 3; ++ocol) {
        double acc = 0.0;
        for (std::size_t wr = 0; wr < 3; ++wr)
          for (std::size_t wc = 0; wc < 3; ++wc) {
            acc += x.at3(c, orow * 3 + wr, ocol * 3 + wc);
            ref_gx.at3(c, orow * 3 + wr, ocol * 3 + wc) += gy.at3(c, orow, ocol) / 9.0;
          }
        ref.at3(c, orow, ocol) = acc / 9.0;
      }
  EXPECT_LT(rel_error(pool.forward(x), ref), kRelTol);
  expect_bitwise_equal(pool.forward_batch({x}, /*training=*/true)[0], pool.forward(x));
  EXPECT_LT(rel_error(pool.backward_batch({gy})[0], ref_gx), kRelTol);
  EXPECT_LT(rel_error(pool.backward_input(x, gy), ref_gx), kRelTol);
}

TEST(PoolKernel, WrongSizeTensorsThrow) {
  MaxPool2D max_pool(2, 4, 4, 2);
  AvgPool2D avg_pool(2, 4, 4, 2);
  const Tensor x(max_pool.input_shape());
  const Tensor bad_grad(Shape{2, 2, 3});
  EXPECT_THROW(max_pool.forward(Tensor(Shape{2, 4, 2})), ContractViolation);
  EXPECT_THROW(avg_pool.forward(Tensor(Shape{2, 4, 2})), ContractViolation);
  EXPECT_THROW(max_pool.backward_input(x, bad_grad), ContractViolation);
  EXPECT_THROW(avg_pool.backward_input(x, bad_grad), ContractViolation);
  max_pool.forward_batch({x}, /*training=*/true);
  avg_pool.forward_batch({x}, /*training=*/true);
  EXPECT_THROW(max_pool.backward_batch({bad_grad}), ContractViolation);
  EXPECT_THROW(avg_pool.backward_batch({bad_grad}), ContractViolation);
}

// ---- Dense --------------------------------------------------------------

TEST(DenseKernel, BackwardMatchesReference) {
  Rng rng(8);
  Dense dense(7, 5);
  dense.init_he(rng);
  const Tensor x = Tensor::randn(Shape{7}, rng, 1.0);
  const Tensor gy = Tensor::randn(Shape{5}, rng, 1.0);
  Tensor ref_gx(Shape{7}), ref_gw(Shape{5, 7}), ref_gb(Shape{5});
  for (std::size_t r = 0; r < 5; ++r) {
    ref_gb[r] = gy[r];
    for (std::size_t c = 0; c < 7; ++c) {
      ref_gw.at2(r, c) = gy[r] * x[c];
      ref_gx[c] += dense.weight().at2(r, c) * gy[r];
    }
  }
  dense.forward_batch({x}, /*training=*/true);
  dense.zero_grad();
  EXPECT_LT(rel_error(dense.backward_batch({gy})[0], ref_gx), kRelTol);
  EXPECT_LT(rel_error(dense.backward_input(x, gy), ref_gx), kRelTol);
  const std::vector<ParamRef> params = dense.params();
  EXPECT_LT(rel_error(*params[0].grad, ref_gw), kRelTol);
  EXPECT_LT(rel_error(*params[1].grad, ref_gb), kRelTol);
}

// ---- parallel batches: byte-identical to one sample at a time -------------

struct TrainingBytes {
  std::vector<Tensor> outputs, input_grads, param_grads;
};

std::vector<Tensor> param_grads(Layer& layer) {
  std::vector<Tensor> grads;
  for (const ParamRef& p : layer.params()) grads.push_back(*p.grad);
  return grads;
}

// One training batch: sample-parallel once it clears kParallelGrain.
TrainingBytes batch_pass(Layer& layer, const std::vector<Tensor>& xs,
                         const std::vector<Tensor>& gys) {
  layer.zero_grad();
  TrainingBytes out;
  out.outputs = layer.forward_batch(xs, /*training=*/true);
  out.input_grads = layer.backward_batch(gys);
  out.param_grads = param_grads(layer);
  return out;
}

// The same samples one at a time, accumulating without zero_grad: always
// inline, so this is the serial order.
TrainingBytes sample_pass(Layer& layer, const std::vector<Tensor>& xs,
                          const std::vector<Tensor>& gys) {
  layer.zero_grad();
  TrainingBytes out;
  for (std::size_t s = 0; s < xs.size(); ++s) {
    out.outputs.push_back(layer.forward_batch({xs[s]}, /*training=*/true)[0]);
    out.input_grads.push_back(layer.backward_batch({gys[s]})[0]);
  }
  out.param_grads = param_grads(layer);
  return out;
}

void expect_same_bytes(const std::vector<Tensor>& a, const std::vector<Tensor>& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].numel(), b[i].numel()) << what << " " << i;
    EXPECT_EQ(std::memcmp(a[i].data().data(), b[i].data().data(), a[i].numel() * sizeof(double)),
              0)
        << what << " " << i << " differs";
  }
}

void expect_batch_matches_samples(Layer& layer, bool above_grain, std::uint64_t seed) {
  constexpr std::size_t kBatch = 32;
  const std::size_t moved =
      kBatch * (layer.input_shape().numel() + layer.output_shape().numel());
  EXPECT_EQ(moved >= kParallelGrain, above_grain) << layer_kind_name(layer.kind());
  Rng rng(seed);
  std::vector<Tensor> xs, gys;
  for (std::size_t s = 0; s < kBatch; ++s) {
    xs.push_back(Tensor::randn(layer.input_shape(), rng, 1.0));
    gys.push_back(Tensor::randn(layer.output_shape(), rng, 1.0));
  }
  const TrainingBytes batch = batch_pass(layer, xs, gys);
  const TrainingBytes serial = sample_pass(layer, xs, gys);
  const std::string name = layer_kind_name(layer.kind());
  expect_same_bytes(batch.outputs, serial.outputs, name + " output");
  expect_same_bytes(batch.input_grads, serial.input_grads, name + " input gradient");
  expect_same_bytes(batch.param_grads, serial.param_grads, name + " parameter gradient");
}

TEST(ParallelTraining, BatchesAreByteIdenticalToOneSampleAtATime) {
  Rng rng(21);
  Conv2D conv(2, 8, 8, 3, 3, 1, 1);  // 32 x (128 + 192) values
  conv.init_he(rng);
  expect_batch_matches_samples(conv, true, 1);
  Conv2D strided(3, 9, 9, 4, 3, 2, 1);  // 32 x (243 + 100)
  strided.init_he(rng);
  expect_batch_matches_samples(strided, true, 2);
  Dense wide(96, 40);  // 32 x 136
  wide.init_he(rng);
  expect_batch_matches_samples(wide, true, 3);
  Dense narrow(7, 5);  // 32 x 12: inline
  narrow.init_he(rng);
  expect_batch_matches_samples(narrow, false, 4);
  MaxPool2D pool(2, 8, 8, 2);  // 32 x (128 + 32)
  expect_batch_matches_samples(pool, true, 5);
  ReLU relu(Shape{200});  // 32 x 400
  expect_batch_matches_samples(relu, true, 6);
  Flatten flatten(Shape{2, 8, 8});  // 32 x 256
  expect_batch_matches_samples(flatten, true, 7);
}

// ---- determinism --------------------------------------------------------

// The testbed recipe (perception net, Adam 0.005, batch 32, shuffle seed 3)
// at reduced size; returns the serialized trained network.
std::string train_testbed_recipe() {
  const data::PerceptionConfig config;
  const train::Dataset data = data::to_regression_dataset(
      data::generate_road_samples(data::RoadDatasetConfig{80, 101, config.render}));
  Rng rng(7);
  data::PerceptionModel model = data::make_perception_network(config, rng);
  train::MseLoss loss;
  train::Adam optimizer(0.005);
  train::Trainer trainer({.epochs = 2, .batch_size = 32, .shuffle_seed = 3});
  trainer.fit(model.network, data, loss, optimizer);
  std::ostringstream out;
  save(model.network, out);
  return out.str();
}

TEST(KernelDeterminism, TrainingTwiceGivesIdenticalBytes) {
  const std::string first = train_testbed_recipe();
  // Repeat on two concurrent threads that share the worker pool: scratch
  // is call-local and every gradient chain keeps its order, so neither
  // the thread nor its neighbour may change a bit.
  std::string second, third;
  std::thread a([&] { second = train_testbed_recipe(); });
  std::thread b([&] { third = train_testbed_recipe(); });
  a.join();
  b.join();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(first == second) << "retraining changed the saved network";
  EXPECT_TRUE(first == third) << "concurrent retraining changed the saved network";
}

}  // namespace
}  // namespace dpv::nn
