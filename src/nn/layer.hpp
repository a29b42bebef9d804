// Layer interface for the feed-forward network substrate.
//
// Layers support three usage modes:
//   * inference      — `forward` (const, no state),
//   * training       — `forward_batch(training=true)` caches per-sample
//                      intermediates; `backward_batch` consumes output
//                      gradients and accumulates parameter gradients.
//                      Both run sample-parallel on the worker pool once a
//                      batch is big enough (see batch_threads); parameter
//                      gradients keep their serial accumulation order, so
//                      results never depend on the thread count,
//   * verification   — `kind()` plus layer-specific accessors let the
//                      MILP encoder and abstract interpreter walk the
//                      network structurally (Dense / ReLU / BatchNorm are
//                      the close-to-output kinds the paper verifies).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv::nn {

/// Structural discriminator used by the verifier and serializer.
enum class LayerKind {
  kDense,
  kReLU,
  kLeakyReLU,
  kSigmoid,
  kTanh,
  kBatchNorm,
  kConv2D,
  kMaxPool2D,
  kAvgPool2D,
  kFlatten,
};

/// Name used in the serialization format and error messages.
std::string layer_kind_name(LayerKind kind);

/// Mutable view of one learnable parameter tensor and its gradient.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Throws ContractViolation naming `where` unless `t` holds `numel` values.
void check_numel(const Tensor& t, std::size_t numel, const char* where);

/// Values (batch x (input + output size)) a training pass through one
/// layer must move before it runs on the worker pool. At batch 32 the
/// testbed network's convolutional front-end and first dense layer clear
/// it; characterizer networks (16 features, 8 hidden, batch 16) stay
/// inline.
constexpr std::size_t kParallelGrain = 4096;

/// Abstract feed-forward layer.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual Shape input_shape() const = 0;
  virtual Shape output_shape() const = 0;

  /// Pure inference on one sample; never touches training caches.
  virtual Tensor forward(const Tensor& x) const = 0;

  /// Training-mode batch forward. When `training` is true the layer caches
  /// whatever `backward_batch` needs; callers must pair the two calls.
  virtual std::vector<Tensor> forward_batch(const std::vector<Tensor>& xs, bool training);

  /// Batch backward: consumes dL/dy per sample, returns dL/dx per sample,
  /// and accumulates parameter gradients (callers zero them per step).
  /// The batch must match the last training-mode `forward_batch`.
  virtual std::vector<Tensor> backward_batch(const std::vector<Tensor>& grad_out);

  /// Stateless vector-Jacobian product: gradient of a scalar objective
  /// w.r.t. the layer input, given the input `x` and the objective's
  /// gradient w.r.t. the layer output at `x`. Never touches training
  /// caches and never accumulates parameter gradients, so concurrent
  /// attack workers can share one const network.
  virtual Tensor backward_input(const Tensor& x, const Tensor& grad_out) const = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy (used when attaching characterizers to a trained network).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Zeroes all parameter gradients.
  void zero_grad();

 protected:
  /// Per-sample training forward; default layers use this via the batch
  /// loop. `slot` indexes the cache for the sample within the batch.
  /// Called concurrently for different slots: it may write only its own
  /// slot's cache.
  virtual Tensor forward_train(const Tensor& x, std::size_t slot) = 0;

  /// Per-sample backward matching `forward_train`, for layers without
  /// parameters: the default backward_batch calls it concurrently for
  /// different slots. Layers with parameters override backward_batch
  /// instead and keep this default, which throws InternalError.
  virtual Tensor backward_sample(const Tensor& grad_out, std::size_t slot);

  /// Threads a training pass over `batch` samples may use: the pool
  /// width, or 1 (inline) while batch x (input + output size) stays below
  /// kParallelGrain — a tiny layer costs less than a fork-join.
  std::size_t batch_threads(std::size_t batch) const;

  /// Throws ContractViolation unless `batch` matches the last training
  /// forward.
  void check_backward_batch(std::size_t batch) const;

  /// Resizes per-sample caches for a batch of the given size.
  virtual void prepare_cache(std::size_t batch_size) = 0;

 private:
  std::size_t train_batch_ = 0;  // samples cached by the last training forward
};

}  // namespace dpv::nn
