#include "nn/dense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{out_features, in_features}),
      bias_grad_(Shape{out_features}) {
  check(in_features > 0 && out_features > 0, "Dense: feature counts must be positive");
}

void Dense::init_he(Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features_));
  weight_ = Tensor::randn(weight_.shape(), rng, stddev);
  bias_.fill(0.0);
}

void Dense::set_parameters(Tensor weight, Tensor bias) {
  check(weight.shape() == weight_.shape(),
        "Dense::set_parameters: weight shape " + weight.shape().to_string() + " expected " +
            weight_.shape().to_string());
  check(bias.shape() == bias_.shape(), "Dense::set_parameters: bias shape mismatch");
  weight_ = std::move(weight);
  bias_ = std::move(bias);
}

Tensor Dense::forward(const Tensor& x) const {
  check(x.numel() == in_features_, "Dense::forward: input length mismatch");
  Tensor y = matvec(weight_, x.shape().rank() == 1 ? x : x.reshaped(Shape{in_features_}));
  for (std::size_t i = 0; i < out_features_; ++i) y[i] += bias_[i];
  return y;
}

Tensor Dense::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  check_numel(grad_out, out_features_, "Dense::backward_input: gradient");
  Tensor gx(Shape{in_features_});
  for (std::size_t r = 0; r < out_features_; ++r) {
    const double g = grad_out[r];
    if (g == 0.0) continue;
    for (std::size_t c = 0; c < in_features_; ++c) gx[c] += weight_[r * in_features_ + c] * g;
  }
  return gx;
}

std::vector<ParamRef> Dense::params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_features_, out_features_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

Tensor Dense::forward_train(const Tensor& x, std::size_t slot) {
  cached_inputs_[slot] = x.shape().rank() == 1 ? x : x.reshaped(Shape{in_features_});
  return forward(x);
}

std::vector<Tensor> Dense::backward_batch(const std::vector<Tensor>& grad_out) {
  check_backward_batch(grad_out.size());
  const std::size_t n = grad_out.size(), threads = batch_threads(n);
  std::vector<Tensor> gxs(n);
  parallel_for(n, threads,  // backward_input checks every gradient's size
               [&](std::size_t s) { gxs[s] = backward_input(Tensor(), grad_out[s]); });
  // dW[r][c] += gy[r] * x[c] and db[r] += gy[r], one row per unit, samples
  // in order. dW products are stored before their add (never fused into
  // an FMA).
  parallel_for(out_features_, threads, [&](std::size_t r) {
    std::vector<double> prod(in_features_);
    double* wg = weight_grad_.data().data() + r * in_features_;
    for (std::size_t s = 0; s < n; ++s) {
      const double g = grad_out[s][r];
      const double* x = cached_inputs_[s].data().data();
      bias_grad_[r] += g;
      for (std::size_t c = 0; c < in_features_; ++c) prod[c] = g * x[c];
      for (std::size_t c = 0; c < in_features_; ++c) wg[c] += prod[c];
    }
  });
  return gxs;
}

void Dense::prepare_cache(std::size_t batch_size) { cached_inputs_.resize(batch_size); }

}  // namespace dpv::nn
