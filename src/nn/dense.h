#pragma once
// Fully-connected layer on [N, in_features] inputs.

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "nn/quant.h"
#include "tensor/pack.h"
#include "tensor/rng.h"

namespace tbnet::nn {

/// y = x * W^T + b, with W laid out [out_features, in_features].
class Dense : public Layer {
 public:
  /// Draws W from `rng` (kaiming_normal); a bias starts at zero.
  Dense(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  /// Builds the layer from its weights: `weight` is [out_features,
  /// in_features], `bias` is [out_features] or empty for a bias-free layer
  /// (else std::invalid_argument).
  explicit Dense(Tensor weight, Tensor bias = Tensor());

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;

  /// Eval-only fused forward: y = act(x * W^T + b) with the bias and the
  /// activation applied in the GEMM epilogue (per output feature = per C
  /// column). Used by Sequential's fusion plan for Dense -> ReLU pairs.
  Tensor forward_fused(ExecutionContext& ctx, const Tensor& input,
                       simd::Act act);

  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "Dense"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;

  int64_t in_features() const { return in_f_; }
  int64_t out_features() const { return out_f_; }
  bool has_bias() const { return has_bias_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Keeps only the listed input *features* (columns of W).
  void select_in_features(const std::vector<int64_t>& keep);

  /// Keeps the input features corresponding to the listed input *channels*,
  /// where each channel spans `features_per_channel` consecutive features
  /// (used after a Flatten of [C, H, W] with H*W = features_per_channel).
  void select_in_channels(const std::vector<int64_t>& keep,
                          int64_t features_per_channel);

  /// Attaches int8 quantized weights (nn/quant.h); eval forward then runs
  /// the transposed int8 GEMM C^T[out_f, n] = W_q * X_q^T (the weight is the
  /// stationary packed A side, batch rows become B columns) and transposes
  /// the result. Only layers with out_features >= simd::kNR are quantized by
  /// the calibration walker. Clears the packed caches.
  void set_quantized(QuantizedWeights qw);
  bool quantized() const { return !quant_.empty(); }
  const QuantizedWeights& quant() const { return quant_; }

  /// Packs W^T into right-operand panels (cached; see Layer). A quantized
  /// layer packs int8 A panels of W instead (see set_quantized).
  void prepare_inference(ExecutionContext& ctx) override;

 private:
  Tensor forward_impl(ExecutionContext& ctx, const Tensor& input, bool train,
                      simd::Act act);
  Tensor forward_int8(ExecutionContext& ctx, const Tensor& input,
                      simd::Act act);

  int64_t in_f_, out_f_;
  bool has_bias_;
  Tensor weight_, weight_grad_;
  Tensor bias_, bias_grad_;
  Tensor cached_input_;
  PackedGemm packed_;  ///< W^T panels; empty until prepare_inference
  QuantizedWeights quant_;      ///< int8 weights; empty = f32 serving
  std::vector<int8_t> qpacked_; ///< int8 A panels of W; empty until prepare
};

}  // namespace tbnet::nn
