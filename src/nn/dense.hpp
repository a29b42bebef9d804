// Fully-connected (affine) layer: y = W x + b.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

/// Affine layer over rank-1 inputs. Weights are [out, in] row-major.
class Dense : public Layer {
 public:
  /// Zero-initialized layer (weights set later via init or deserialization).
  Dense(std::size_t in_features, std::size_t out_features);

  /// He-style initialization: stddev = sqrt(2 / in_features).
  void init_he(Rng& rng);

  /// Explicit parameter injection (used by tests and hand-built tails).
  void set_parameters(Tensor weight, Tensor bias);

  LayerKind kind() const override { return LayerKind::kDense; }
  Shape input_shape() const override { return Shape{in_features_}; }
  Shape output_shape() const override { return Shape{out_features_}; }

  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const override;
  /// Input gradients per sample in parallel; weight and bias gradients in
  /// parallel across output rows, each row summing samples in order.
  std::vector<Tensor> backward_batch(const std::vector<Tensor>& grad_out) override;
  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 protected:
  Tensor forward_train(const Tensor& x, std::size_t slot) override;
  void prepare_cache(std::size_t batch_size) override;

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor weight_grad_;  // [out, in]
  Tensor bias_grad_;    // [out]
  std::vector<Tensor> cached_inputs_;
};

}  // namespace dpv::nn
