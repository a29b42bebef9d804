#include "nn/layer.hpp"

#include "common/check.hpp"
#include "common/worker_pool.hpp"

namespace dpv::nn {

std::string layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return "dense";
    case LayerKind::kReLU:
      return "relu";
    case LayerKind::kLeakyReLU:
      return "leakyrelu";
    case LayerKind::kSigmoid:
      return "sigmoid";
    case LayerKind::kTanh:
      return "tanh";
    case LayerKind::kBatchNorm:
      return "batchnorm";
    case LayerKind::kConv2D:
      return "conv2d";
    case LayerKind::kMaxPool2D:
      return "maxpool2d";
    case LayerKind::kAvgPool2D:
      return "avgpool2d";
    case LayerKind::kFlatten:
      return "flatten";
  }
  throw InternalError("layer_kind_name: unknown kind");
}

void check_numel(const Tensor& t, std::size_t numel, const char* where) {
  if (t.numel() != numel)
    throw ContractViolation(std::string(where) + " has " + std::to_string(t.numel()) +
                            " values, expected " + std::to_string(numel));
}

std::size_t Layer::batch_threads(std::size_t batch) const {
  const std::size_t moved = batch * (input_shape().numel() + output_shape().numel());
  return moved < kParallelGrain ? 1 : pool_width();
}

void Layer::check_backward_batch(std::size_t batch) const {
  check(batch == train_batch_,
        layer_kind_name(kind()) + ": gradient batch of " + std::to_string(batch) +
            " does not match the cached forward batch of " + std::to_string(train_batch_));
}

std::vector<Tensor> Layer::forward_batch(const std::vector<Tensor>& xs, bool training) {
  if (!training) {
    std::vector<Tensor> ys;
    ys.reserve(xs.size());
    for (const Tensor& x : xs) ys.push_back(forward(x));
    return ys;
  }
  prepare_cache(xs.size());
  train_batch_ = xs.size();
  std::vector<Tensor> ys(xs.size());
  parallel_for(xs.size(), batch_threads(xs.size()),
               [&](std::size_t i) { ys[i] = forward_train(xs[i], i); });
  return ys;
}

std::vector<Tensor> Layer::backward_batch(const std::vector<Tensor>& grad_out) {
  check_backward_batch(grad_out.size());
  std::vector<Tensor> gxs(grad_out.size());
  parallel_for(grad_out.size(), batch_threads(grad_out.size()),
               [&](std::size_t i) { gxs[i] = backward_sample(grad_out[i], i); });
  return gxs;
}

Tensor Layer::backward_sample(const Tensor& /*grad_out*/, std::size_t /*slot*/) {
  throw InternalError(layer_kind_name(kind()) + ": per-sample backward is not used");
}

void Layer::zero_grad() {
  for (ParamRef& p : params()) p.grad->fill(0.0);
}

}  // namespace dpv::nn
