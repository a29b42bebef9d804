#include "nn/layer.hpp"

#include "common/check.hpp"

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

std::vector<Tensor> Layer::forward_batch(const std::vector<Tensor>& xs, bool training) {
  std::vector<Tensor> ys;
  ys.reserve(xs.size());
  if (!training) {
    for (const Tensor& x : xs) ys.push_back(forward(x));
    return ys;
  }
  prepare_cache(xs.size());
  train_batch_ = xs.size();
  for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(forward_train(xs[i], i));
  return ys;
}

std::vector<Tensor> Layer::backward_batch(const std::vector<Tensor>& grad_out) {
  check(grad_out.size() == train_batch_,
        layer_kind_name(kind()) + ": gradient batch of " + std::to_string(grad_out.size()) +
            " does not match the cached forward batch of " + std::to_string(train_batch_));
  std::vector<Tensor> gxs;
  gxs.reserve(grad_out.size());
  for (std::size_t i = 0; i < grad_out.size(); ++i) gxs.push_back(backward_sample(grad_out[i], i));
  return gxs;
}

void Layer::zero_grad() {
  for (ParamRef& p : params()) p.grad->fill(0.0);
}

}  // namespace dpv::nn
