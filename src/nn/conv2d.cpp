#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"

namespace dpv::nn {

namespace {
// acc + a * b in one rounding where the target has FMA, even where the
// vectorizer would split a reduction into a product and an add.
#ifdef __FMA__
inline double fused(double a, double b, double acc) { return std::fma(a, b, acc); }
#else
inline double fused(double a, double b, double acc) { return acc + a * b; }
#endif

std::size_t conv_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                        std::size_t padding) {
  check(in + 2 * padding >= kernel, "Conv2D: kernel larger than padded input");
  return (in + 2 * padding - kernel) / stride + 1;
}
}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t in_height, std::size_t in_width,
               std::size_t out_channels, std::size_t kernel, std::size_t stride,
               std::size_t padding)
    : in_channels_(in_channels),
      in_height_(in_height),
      in_width_(in_width),
      out_channels_(out_channels),
      out_height_(conv_extent(in_height, kernel, stride, padding)),
      out_width_(conv_extent(in_width, kernel, stride, padding)),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels * in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  check(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
        "Conv2D: dimensions must be positive");
}

void Conv2D::init_he(Rng& rng) {
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  weight_ = Tensor::randn(weight_.shape(), rng, std::sqrt(2.0 / fan_in));
  bias_.fill(0.0);
}

void Conv2D::set_parameters(Tensor weight, Tensor bias) {
  check(weight.numel() == weight_.numel(), "Conv2D::set_parameters: weight size mismatch");
  check(bias.numel() == bias_.numel(), "Conv2D::set_parameters: bias size mismatch");
  weight_ = weight.reshaped(weight_.shape());
  bias_ = bias.reshaped(bias_.shape());
}

Tensor Conv2D::forward_padded(const Tensor& x, std::vector<double>& xp) const {
  check_numel(x, input_shape().numel(), "Conv2D: input");
  const std::size_t ph = in_height_ + 2 * padding_, pw = in_width_ + 2 * padding_;
  const std::size_t plane = out_height_ * out_width_;
  xp.assign(in_channels_ * ph * pw, 0.0);
  const double* src = x.data().data();
  for (std::size_t c = 0; c < in_channels_; ++c)
    for (std::size_t r = 0; r < in_height_; ++r, src += in_width_)
      std::copy(src, src + in_width_, xp.data() + (c * ph + r + padding_) * pw + padding_);
  Tensor y(output_shape());
  const double* w = weight_.data().data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    double* yplane = y.data().data() + oc * plane;
    std::fill(yplane, yplane + plane, bias_[oc]);
    for (std::size_t ic = 0; ic < in_channels_; ++ic)
      for (std::size_t kr = 0; kr < kernel_; ++kr)
        for (std::size_t kc = 0; kc < kernel_; ++kc) {
          const double wv = *w++;
          for (std::size_t orow = 0; orow < out_height_; ++orow) {
            const double* xrow = xp.data() + (ic * ph + orow * stride_ + kr) * pw + kc;
            double* yrow = yplane + orow * out_width_;
            for (std::size_t ocol = 0; ocol < out_width_; ++ocol)
              yrow[ocol] += wv * xrow[ocol * stride_];
          }
        }
  }
  return y;
}

Tensor Conv2D::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  check_numel(grad_out, output_shape().numel(), "Conv2D: gradient");
  const std::size_t ph = in_height_ + 2 * padding_, pw = in_width_ + 2 * padding_;
  const std::size_t plane = out_height_ * out_width_, k2 = kernel_ * kernel_;
  std::vector<double> gp(in_channels_ * ph * pw, 0.0), prod(out_width_);
  // Taps in descending (kr, kc) order hand every input cell its contributions
  // in ascending (oc, orow, ocol) order. Products are stored before their
  // add, so never fused into an FMA: trained weights stay bit-stable.
  for (std::size_t oc = 0; oc < out_channels_; ++oc)
    for (std::size_t ic = 0; ic < in_channels_; ++ic)
      for (std::size_t tap = k2; tap-- > 0;) {
        const double w = weight_[(oc * in_channels_ + ic) * k2 + tap];
        for (std::size_t orow = 0; orow < out_height_; ++orow) {
          const double* grow = grad_out.data().data() + oc * plane + orow * out_width_;
          double* xrow =
              gp.data() + (ic * ph + orow * stride_ + tap / kernel_) * pw + tap % kernel_;
          for (std::size_t ocol = 0; ocol < out_width_; ++ocol) prod[ocol] = grow[ocol] * w;
          for (std::size_t ocol = 0; ocol < out_width_; ++ocol) xrow[ocol * stride_] += prod[ocol];
        }
      }
  Tensor gx(input_shape());
  double* dst = gx.data().data();
  for (std::size_t c = 0; c < in_channels_; ++c)
    for (std::size_t r = 0; r < in_height_; ++r, dst += in_width_) {
      const double* src = gp.data() + (c * ph + r + padding_) * pw + padding_;
      std::copy(src, src + in_width_, dst);
    }
  return gx;
}

Tensor Conv2D::forward(const Tensor& x) const {
  std::vector<double> xp;
  return forward_padded(x, xp);
}

std::vector<ParamRef> Conv2D::params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(in_channels_, in_height_, in_width_, out_channels_,
                                       kernel_, stride_, padding_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

Tensor Conv2D::forward_train(const Tensor& x, std::size_t slot) {
  return forward_padded(x, cached_padded_[slot]);
}

std::vector<Tensor> Conv2D::backward_batch(const std::vector<Tensor>& grad_out) {
  check_backward_batch(grad_out.size());
  const std::size_t n = grad_out.size(), threads = batch_threads(n);
  std::vector<Tensor> gxs(n);
  parallel_for(n, threads,  // backward_input checks every gradient's size
               [&](std::size_t s) { gxs[s] = backward_input(Tensor(), grad_out[s]); });
  const std::size_t ph = in_height_ + 2 * padding_, pw = in_width_ + 2 * padding_;
  const std::size_t plane = out_height_ * out_width_;
  const std::size_t taps = weight_.numel(), k2 = kernel_ * kernel_, groups = (taps + 3) / 4;
  double* wg = weight_grad_.data().data();
  // Units [0, groups) each own four taps; the rest own one bias entry.
  // Every chain adds samples in order and, within a sample, cells in
  // order, whichever thread runs it: the bytes do not depend on `threads`.
  parallel_for(groups + out_channels_, threads, [&](std::size_t unit) {
    if (unit >= groups) {
      const std::size_t oc = unit - groups;
      double acc = bias_grad_[oc];
      for (const Tensor& g : grad_out)
        for (std::size_t i = 0; i < plane; ++i) acc += g[oc * plane + i];
      bias_grad_[oc] = acc;
      return;
    }
    // Weight gradients: one in-order sum over the output cells per tap,
    // four taps at a time as independent chains (a short last group
    // repeats its last tap). Padding cells are zeros, so no bounds branch.
    const std::size_t t0 = 4 * unit;
    double acc[4];
    std::size_t goff[4], xoff[4];
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t t = std::min(t0 + j, taps - 1), tap = t % k2;
      acc[j] = wg[t];
      goff[j] = t / (in_channels_ * k2) * plane;
      xoff[j] = (t / k2 % in_channels_ * ph + tap / kernel_) * pw + tap % kernel_;
    }
    for (std::size_t s = 0; s < n; ++s) {
      const double* xp = cached_padded_[s].data();
      const double* g = grad_out[s].data().data();
      for (std::size_t orow = 0, cell = 0; orow < out_height_; ++orow)
        for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++cell) {
          const std::size_t at = orow * stride_ * pw + ocol * stride_;
          for (std::size_t j = 0; j < 4; ++j)
            acc[j] = fused(g[goff[j] + cell], xp[xoff[j] + at], acc[j]);
        }
    }
    for (std::size_t j = 0; j < 4 && t0 + j < taps; ++j) wg[t0 + j] = acc[j];
  });
  return gxs;
}

void Conv2D::prepare_cache(std::size_t batch_size) { cached_padded_.resize(batch_size); }

}  // namespace dpv::nn
