#include "nn/pool2d.hpp"

#include "common/check.hpp"

namespace dpv::nn {

Pool2D::Pool2D(std::size_t channels, std::size_t in_height, std::size_t in_width,
               std::size_t window)
    : channels_(channels),
      in_height_(in_height),
      in_width_(in_width),
      out_height_(in_height / window),
      out_width_(in_width / window),
      window_(window) {
  check(window > 0, "Pool2D: window must be positive");
  check(in_height % window == 0 && in_width % window == 0,
        "Pool2D: input extents must be divisible by the window");
}

Tensor MaxPool2D::pool(const Tensor& x, std::vector<std::size_t>& argmax) const {
  check_numel(x, input_shape().numel(), "MaxPool2D: input");
  Tensor y(output_shape());
  argmax.resize(y.numel());
  const double* xp = x.data().data();
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx) {
        const std::size_t corner = (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        std::size_t best = corner;
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc) {
            const std::size_t i = corner + wr * in_width_ + wc;
            if (xp[i] > xp[best]) best = i;
          }
        y[out_idx] = xp[best];
        argmax[out_idx] = best;
      }
  return y;
}

Tensor MaxPool2D::route(const Tensor& grad_out, const std::vector<std::size_t>& argmax) const {
  check_numel(grad_out, argmax.size(), "MaxPool2D: gradient");
  Tensor gx(input_shape());
  for (std::size_t i = 0; i < argmax.size(); ++i) gx[argmax[i]] += grad_out[i];
  return gx;
}

Tensor MaxPool2D::forward(const Tensor& x) const {
  std::vector<std::size_t> argmax;
  return pool(x, argmax);
}

Tensor MaxPool2D::backward_input(const Tensor& x, const Tensor& grad_out) const {
  // Recomputes the argmax from `x` instead of reading the training cache.
  std::vector<std::size_t> argmax;
  pool(x, argmax);
  return route(grad_out, argmax);
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(channels_, in_height_, in_width_, window_);
}

Tensor MaxPool2D::forward_train(const Tensor& x, std::size_t slot) {
  return pool(x, cached_argmax_[slot]);
}

Tensor MaxPool2D::backward_sample(const Tensor& grad_out, std::size_t slot) {
  return route(grad_out, cached_argmax_[slot]);
}

void MaxPool2D::prepare_cache(std::size_t batch_size) { cached_argmax_.resize(batch_size); }

Tensor AvgPool2D::forward(const Tensor& x) const {
  check_numel(x, input_shape().numel(), "AvgPool2D: input");
  Tensor y(output_shape());
  const double* xp = x.data().data();
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx) {
        const double* corner = xp + (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        double acc = 0.0;
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc) acc += corner[wr * in_width_ + wc];
        y[out_idx] = acc * inv_area;
      }
  return y;
}

Tensor AvgPool2D::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  check_numel(grad_out, output_shape().numel(), "AvgPool2D: gradient");
  Tensor gx(input_shape());
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx) {
        double* corner =
            gx.data().data() + (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc)
            corner[wr * in_width_ + wc] += grad_out[out_idx] * inv_area;
      }
  return gx;
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(channels_, in_height_, in_width_, window_);
}

Tensor AvgPool2D::forward_train(const Tensor& x, std::size_t /*slot*/) { return forward(x); }

Tensor AvgPool2D::backward_sample(const Tensor& grad_out, std::size_t /*slot*/) {
  return backward_input(Tensor(), grad_out);
}

void AvgPool2D::prepare_cache(std::size_t /*batch_size*/) {}

}  // namespace dpv::nn
