#pragma once
// Sequential: an ordered container of layers that is itself a Layer.
//
// Used both for whole victim models and for the per-stage blocks of the
// two-branch model (a fusion stage's REE or TEE side is a small Sequential).

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "tensor/simd.h"

namespace tbnet::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  /// Deep-copying copy operations (layers are cloned).
  Sequential(const Sequential& other);
  Sequential& operator=(const Sequential& other);

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  int size() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<size_t>(i)]; }
  const Layer& layer(int i) const { return *layers_[static_cast<size_t>(i)]; }

  /// n-th layer of dynamic type L (0-based), or nullptr.
  template <typename L>
  L* find_nth(int n) {
    for (auto& l : layers_) {
      if (auto* typed = dynamic_cast<L*>(l.get())) {
        if (n-- == 0) return typed;
      }
    }
    return nullptr;
  }

  /// Removes the i-th layer (used by the deploy-time BN folding pass).
  void remove_layer(int i);

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "Sequential"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;
  int64_t param_bytes() const override;

  /// Builds the fusion plan — Conv2d (+BatchNorm2d) (+ReLU) and Dense
  /// (+ReLU) runs collapse into one fused step — then recurses so children
  /// pack their weights. Eval-mode forward follows the plan; train-mode
  /// forward and un-prepared Sequentials are unchanged. Mutating the
  /// container (add) or copying/cloning it drops the plan.
  void prepare_inference(ExecutionContext& ctx) override;

 private:
  /// One step of the fusion plan: run layers_[layer] with `consumed`
  /// following layers folded into its epilogue.
  struct FusedStep {
    int layer = 0;
    int consumed = 1;    ///< total layers this step advances past
    int bn = -1;         ///< index of the folded BatchNorm2d, -1 = none
    simd::Act act = simd::Act::kNone;
    /// Composed per-channel epilogue affine, cached at prepare time when a
    /// BN is folded in: scale = gamma / sqrt(var + eps), shift = the BN
    /// shift with the head conv's own bias pre-composed. The model is
    /// frozen after prepare_inference (see Layer), so recomputing these per
    /// eval call would be pure waste; empty when bn < 0.
    std::vector<float> scale, shift;
  };

  Tensor forward_prepared(ExecutionContext& ctx, const Tensor& input);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<FusedStep> plan_;
  bool prepared_ = false;
};

}  // namespace tbnet::nn
