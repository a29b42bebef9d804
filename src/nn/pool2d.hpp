// Max / average pooling over (channels, height, width) tensors.
//
// Non-overlapping windows (stride == window), the common down-sampling
// configuration of perception front-ends.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

/// Shared plumbing for the two pooling flavours.
class Pool2D : public Layer {
 public:
  Pool2D(std::size_t channels, std::size_t in_height, std::size_t in_width, std::size_t window);

  Shape input_shape() const override { return Shape{channels_, in_height_, in_width_}; }
  Shape output_shape() const override { return Shape{channels_, out_height_, out_width_}; }

  std::size_t window() const { return window_; }

 protected:
  std::size_t channels_, in_height_, in_width_;
  std::size_t out_height_, out_width_;
  std::size_t window_;
};

/// Maximum over each window; backward routes gradient to the argmax cell.
class MaxPool2D : public Pool2D {
 public:
  using Pool2D::Pool2D;
  LayerKind kind() const override { return LayerKind::kMaxPool2D; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const override;
  std::unique_ptr<Layer> clone() const override;

 protected:
  Tensor forward_train(const Tensor& x, std::size_t slot) override;
  Tensor backward_sample(const Tensor& grad_out, std::size_t slot) override;
  void prepare_cache(std::size_t batch_size) override;

 private:
  /// Window maxima and their flat input indices (ties: first window cell).
  Tensor pool(const Tensor& x, std::vector<std::size_t>& argmax) const;
  Tensor route(const Tensor& grad_out, const std::vector<std::size_t>& argmax) const;

  // Flat input index of the max cell for every output cell, per sample.
  std::vector<std::vector<std::size_t>> cached_argmax_;
};

/// Mean over each window; backward spreads gradient uniformly.
class AvgPool2D : public Pool2D {
 public:
  using Pool2D::Pool2D;
  LayerKind kind() const override { return LayerKind::kAvgPool2D; }
  Tensor forward(const Tensor& x) const override;
  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const override;
  std::unique_ptr<Layer> clone() const override;

 protected:
  Tensor forward_train(const Tensor& x, std::size_t slot) override;
  Tensor backward_sample(const Tensor& grad_out, std::size_t slot) override;
  void prepare_cache(std::size_t batch_size) override;
};

}  // namespace dpv::nn
