#pragma once
// Layer: the interface every network building block implements.
//
// tbnet uses classic define-by-layer backprop (no tape autograd): each layer
// caches what it needs during forward(train=true) and exposes backward() that
// consumes dLoss/dOutput and returns dLoss/dInput, accumulating parameter
// gradients internally. This is sufficient for the chain / two-branch
// topologies in this project and keeps the memory profile predictable, which
// matters for the TEE memory accounting.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace tbnet::nn {

/// A named, non-owning view of one learnable parameter and its gradient.
struct ParamRef {
  std::string name;     ///< e.g. "conv1.weight"
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  bool apply_weight_decay = true;  ///< BN scale/shift usually exempted.
};

/// Abstract network layer operating on float tensors.
///
/// Convolutional layers use NCHW batches; Dense/Flatten use [N, features].
///
/// The virtual interface is context-aware: forward/backward take the
/// ExecutionContext whose arena provides scratch and whose pool shards the
/// kernels. The context-free overloads are thin non-virtual shims that run
/// on the calling thread's default context, so pre-context call sites
/// (trainers, tests, examples) keep working unchanged. Subclasses must pull
/// the shims back into scope with `using Layer::forward; using
/// Layer::backward;`.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. When `train` is true the layer caches the
  /// activations it needs for backward() and (for BatchNorm) updates running
  /// statistics. Arena allocations made from `ctx` do not outlive the call.
  virtual Tensor forward(ExecutionContext& ctx, const Tensor& input,
                         bool train) = 0;

  /// Back-propagates `grad_output` (dLoss/dOutput of the *last* forward call
  /// with train=true), accumulating parameter gradients and returning
  /// dLoss/dInput.
  virtual Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) = 0;

  /// Compatibility shims: run on the calling thread's default context.
  Tensor forward(const Tensor& input, bool train) {
    return forward(default_execution_context(), input, train);
  }
  Tensor backward(const Tensor& grad_output) {
    return backward(default_execution_context(), grad_output);
  }

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Sets all parameter gradients to zero.
  void zero_grad();

  /// Layer type tag used in logs and serialization ("Conv2d", ...).
  virtual std::string kind() const = 0;

  /// Deep copy, including parameters and running statistics, excluding any
  /// cached forward state and prepare-time packs. Gradients start at zero
  /// (every training loop zeroes them before backward).
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Output shape for a given input shape (throws on incompatible input).
  virtual Shape out_shape(const Shape& in) const = 0;

  /// Multiply-accumulate count of one forward pass on `in` (0 for reshape
  /// style layers). Used by the TEE latency cost model.
  virtual int64_t macs(const Shape& in) const = 0;

  /// Bytes of learnable + buffer state that must live in device memory.
  virtual int64_t param_bytes() const;

  /// Deploy-time hook: pre-packs weight panels for the packed GEMM fast path
  /// and (for containers) builds the conv+BN+activation fusion plan, using
  /// `ctx`'s arena for long-lived packed storage. Call only on a model that
  /// will no longer be trained, pruned, or have weights edited — a layer
  /// whose weights change after prepare_inference must be re-prepared
  /// (clone() resets to unprepared). No-op by default. Runs the same in both
  /// kernel modes: TBNET_DETERMINISTIC=1 only selects the scalar tier.
  virtual void prepare_inference(ExecutionContext& ctx) { (void)ctx; }
};

}  // namespace tbnet::nn
