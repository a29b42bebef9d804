// Batch normalization over rank-1 feature vectors.
//
// Training mode normalizes with batch statistics and maintains running
// estimates; inference mode applies the frozen affine transform
//   y_i = scale_i * x_i + shift_i,
// with scale = gamma / sqrt(running_var + eps) and
// shift = beta - scale * running_mean. The frozen form is what the MILP
// encoder and abstract interpreter consume (the paper verifies networks
// whose close-to-output layers are "either ReLU or Batch Normalization").
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, double eps = 1e-5, double momentum = 0.1);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  Shape input_shape() const override { return Shape{features_}; }
  Shape output_shape() const override { return Shape{features_}; }

  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const override;
  std::vector<Tensor> forward_batch(const std::vector<Tensor>& xs, bool training) override;
  std::vector<Tensor> backward_batch(const std::vector<Tensor>& grad_out) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;

  /// Frozen per-feature multiplier gamma / sqrt(running_var + eps).
  double effective_scale(std::size_t feature) const;
  /// Frozen per-feature offset beta - effective_scale * running_mean.
  double effective_shift(std::size_t feature) const;

  /// Direct statistics injection (deserialization, hand-built tails).
  void set_statistics(Tensor running_mean, Tensor running_var);
  void set_affine(Tensor gamma, Tensor beta);

  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  double eps() const { return eps_; }

 protected:
  // Per-sample hooks are unused: BatchNorm overrides the batch API because
  // training-mode normalization couples samples through batch statistics.
  Tensor forward_train(const Tensor& x, std::size_t slot) override;
  void prepare_cache(std::size_t batch_size) override;

 private:
  std::size_t features_;
  double eps_;
  double momentum_;
  Tensor gamma_;
  Tensor beta_;
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor running_mean_;
  Tensor running_var_;
  // Batch-forward caches for backward.
  std::vector<Tensor> cached_normalized_;  // x_hat per sample
  Tensor cached_inv_std_;                  // 1/sqrt(var + eps) per feature
  std::size_t cached_batch_ = 0;
};

}  // namespace dpv::nn
