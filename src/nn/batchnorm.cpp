#include "nn/batchnorm.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dpv::nn {

BatchNorm::BatchNorm(std::size_t features, double eps, double momentum)
    : features_(features),
      eps_(eps),
      momentum_(momentum),
      gamma_(Shape{features}),
      beta_(Shape{features}),
      gamma_grad_(Shape{features}),
      beta_grad_(Shape{features}),
      running_mean_(Shape{features}),
      running_var_(Shape{features}) {
  check(features > 0, "BatchNorm: features must be positive");
  check(eps > 0.0, "BatchNorm: eps must be positive");
  gamma_.fill(1.0);
  running_var_.fill(1.0);
}

Tensor BatchNorm::forward(const Tensor& x) const {
  check(x.numel() == features_, "BatchNorm::forward: input length mismatch");
  Tensor y(Shape{features_});
  for (std::size_t i = 0; i < features_; ++i)
    y[i] = effective_scale(i) * x[i] + effective_shift(i);
  return y;
}

Tensor BatchNorm::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  // Frozen inference form y_i = scale_i * x_i + shift_i, so the VJP is a
  // per-feature rescale by the effective scale.
  check(grad_out.numel() == features_, "BatchNorm::backward_input: gradient length mismatch");
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < features_; ++i) gx[i] *= effective_scale(i);
  return gx;
}

double BatchNorm::effective_scale(std::size_t feature) const {
  return gamma_[feature] / std::sqrt(running_var_[feature] + eps_);
}

double BatchNorm::effective_shift(std::size_t feature) const {
  return beta_[feature] - effective_scale(feature) * running_mean_[feature];
}

void BatchNorm::set_statistics(Tensor running_mean, Tensor running_var) {
  check(running_mean.numel() == features_ && running_var.numel() == features_,
        "BatchNorm::set_statistics: length mismatch");
  running_mean_ = std::move(running_mean);
  running_var_ = std::move(running_var);
}

void BatchNorm::set_affine(Tensor gamma, Tensor beta) {
  check(gamma.numel() == features_ && beta.numel() == features_,
        "BatchNorm::set_affine: length mismatch");
  gamma_ = std::move(gamma);
  beta_ = std::move(beta);
}

std::vector<Tensor> BatchNorm::forward_batch(const std::vector<Tensor>& xs, bool training) {
  if (!training) {
    std::vector<Tensor> ys;
    ys.reserve(xs.size());
    for (const Tensor& x : xs) ys.push_back(forward(x));
    return ys;
  }
  check(!xs.empty(), "BatchNorm: training batch must be non-empty");
  const std::size_t n = xs.size();
  Tensor mean(Shape{features_});
  Tensor var(Shape{features_});
  for (const Tensor& x : xs) {
    check(x.numel() == features_, "BatchNorm: sample length mismatch");
    for (std::size_t i = 0; i < features_; ++i) mean[i] += x[i];
  }
  for (std::size_t i = 0; i < features_; ++i) mean[i] /= static_cast<double>(n);
  for (const Tensor& x : xs)
    for (std::size_t i = 0; i < features_; ++i) {
      const double d = x[i] - mean[i];
      var[i] += d * d;
    }
  for (std::size_t i = 0; i < features_; ++i) var[i] /= static_cast<double>(n);

  cached_batch_ = n;
  cached_normalized_.assign(n, Tensor(Shape{features_}));
  cached_inv_std_ = Tensor(Shape{features_});
  for (std::size_t i = 0; i < features_; ++i)
    cached_inv_std_[i] = 1.0 / std::sqrt(var[i] + eps_);

  std::vector<Tensor> ys(n, Tensor(Shape{features_}));
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t i = 0; i < features_; ++i) {
      const double x_hat = (xs[s][i] - mean[i]) * cached_inv_std_[i];
      cached_normalized_[s][i] = x_hat;
      ys[s][i] = gamma_[i] * x_hat + beta_[i];
    }

  for (std::size_t i = 0; i < features_; ++i) {
    running_mean_[i] = (1.0 - momentum_) * running_mean_[i] + momentum_ * mean[i];
    running_var_[i] = (1.0 - momentum_) * running_var_[i] + momentum_ * var[i];
  }
  return ys;
}

std::vector<Tensor> BatchNorm::backward_batch(const std::vector<Tensor>& grad_out) {
  check(grad_out.size() == cached_batch_, "BatchNorm::backward_batch: batch size mismatch");
  const std::size_t n = cached_batch_;
  const double inv_n = 1.0 / static_cast<double>(n);

  // Standard batch-norm backward over cached x_hat and inv_std:
  //   dx = (gamma * inv_std / n) * (n * dy - sum(dy) - x_hat * sum(dy * x_hat))
  Tensor sum_dy(Shape{features_});
  Tensor sum_dy_xhat(Shape{features_});
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t i = 0; i < features_; ++i) {
      sum_dy[i] += grad_out[s][i];
      sum_dy_xhat[i] += grad_out[s][i] * cached_normalized_[s][i];
    }

  for (std::size_t i = 0; i < features_; ++i) {
    gamma_grad_[i] += sum_dy_xhat[i];
    beta_grad_[i] += sum_dy[i];
  }

  std::vector<Tensor> gxs(n, Tensor(Shape{features_}));
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t i = 0; i < features_; ++i) {
      const double term = static_cast<double>(n) * grad_out[s][i] - sum_dy[i] -
                          cached_normalized_[s][i] * sum_dy_xhat[i];
      gxs[s][i] = gamma_[i] * cached_inv_std_[i] * inv_n * term;
    }
  return gxs;
}

std::vector<ParamRef> BatchNorm::params() {
  return {{"gamma", &gamma_, &gamma_grad_}, {"beta", &beta_, &beta_grad_}};
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto copy = std::make_unique<BatchNorm>(features_, eps_, momentum_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

Tensor BatchNorm::forward_train(const Tensor&, std::size_t) {
  throw InternalError("BatchNorm: per-sample training path is not used");
}

void BatchNorm::prepare_cache(std::size_t) {}

}  // namespace dpv::nn
