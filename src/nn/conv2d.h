#pragma once
// 2-D convolution layer (NCHW). A 3x3, stride-1, pad-1 conv whose depth
// in_c * 9 fits one packed-GEMM k-slice and whose output is at most 32
// channels runs direct on the AVX2 and AVX-512 tiers
// (simd::direct_conv3x3): forward, dX and dW read the image, dy and the
// weight in place. Every other conv, and every conv on the scalar and NEON
// tiers, lowers panel by panel into the packed GEMM (im2col.h, pack.h).
// Both paths give the same forward bits (see simd.h).

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "nn/quant.h"
#include "tensor/im2col.h"
#include "tensor/pack.h"
#include "tensor/rng.h"

namespace tbnet::nn {

/// Conv2d with square or rectangular kernels, zero padding, optional bias.
///
/// Weight layout: [out_c, in_c, kh, kw]. Channel-pruning support
/// (select_out_channels / select_in_channels) is what the TBNet iterative
/// two-branch pruner uses to physically shrink the network.
class Conv2d : public Layer {
 public:
  struct Options {
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t pad = 1;
    bool bias = false;  ///< usually false: BatchNorm follows.
  };

  /// Draws the weight from `rng` (kaiming_normal); a bias starts at zero.
  Conv2d(int64_t in_c, int64_t out_c, const Options& opt, Rng& rng);

  /// Builds the layer from its weights: `weight` is [out_c, in_c, kernel,
  /// kernel], `bias` is [out_c] when opt.bias and empty otherwise (else
  /// std::invalid_argument). The model loader builds parsed layers this way.
  Conv2d(const Options& opt, Tensor weight, Tensor bias = Tensor());

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;

  /// Eval-only fused forward: applies y = act(conv(x) * scale[c] + shift[c])
  /// per output channel in the GEMM epilogue (one pass over the feature map).
  /// `scale`/`shift` must already compose this layer's own bias if any —
  /// Sequential's fusion plan and ResidualBlock build them from the adjacent
  /// BatchNorm. nullptr scale/shift mean identity.
  Tensor forward_fused(ExecutionContext& ctx, const Tensor& input,
                       const float* scale, const float* shift, simd::Act act);

  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "Conv2d"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;

  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  const Options& options() const { return opt_; }

  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  bool has_bias() const { return opt_.bias; }

  /// True when this conv runs the direct path: 3x3, stride 1, pad 1,
  /// in_c * 9 <= packdetail::kBlockK, out_c <= 32, on a tier that has
  /// direct kernels. Decided by the shape and the tier only.
  bool direct() const;

  /// Keeps only the listed output channels (rows of the weight); used when
  /// this layer's own BN channels are pruned.
  void select_out_channels(const std::vector<int64_t>& keep);

  /// Keeps only the listed input channels; used when the *previous* layer's
  /// channels are pruned.
  void select_in_channels(const std::vector<int64_t>& keep);

  /// Deploy-time BN folding: scales each output-channel's weights by
  /// scale[o] and adds shift[o] into the bias (creating the bias if absent),
  /// so a following eval-mode BatchNorm can be removed. Drops any attached
  /// quantization (the weights changed; re-run quantize_for_inference).
  void fuse_scale_shift(const float* scale, const float* shift);

  /// Attaches int8 quantized weights (nn/quant.h). Every eval forward —
  /// plain and fused — then runs the int8 engine; the f32 weight_ is kept
  /// untouched as the training / reference fallback.
  /// Clears the packed caches (they no longer match the serving path).
  void set_quantized(QuantizedWeights qw);
  bool quantized() const { return !quant_.empty(); }
  const QuantizedWeights& quant() const { return quant_; }

  /// Packs the weight into microkernel panels (cached; see Layer). A
  /// quantized layer packs int8 A panels instead of f32 ones; every int8
  /// tier, the scalar one included, consumes the same panel layout. A
  /// direct conv reads its weight in place and packs nothing.
  void prepare_inference(ExecutionContext& ctx) override;

 private:
  Conv2dGeom geom_for(const Shape& in) const;

  Tensor forward_impl(ExecutionContext& ctx, const Tensor& input, bool train,
                      const GemmEpilogue& ep);
  Tensor forward_int8(ExecutionContext& ctx, const Tensor& input,
                      const GemmEpilogue& ep);
  Tensor forward_direct(ExecutionContext& ctx, const Tensor& input,
                        const GemmEpilogue& ep);
  void backward_direct(ExecutionContext& ctx, const Tensor& grad_output,
                       Tensor& grad_input);
  void backward_gemm(ExecutionContext& ctx, const Tensor& grad_output,
                     Tensor& grad_input);

  int64_t in_c_, out_c_;
  Options opt_;
  Tensor weight_, weight_grad_;
  Tensor bias_, bias_grad_;
  Tensor cached_input_;  ///< set by forward(train=true)
  PackedGemm packed_;    ///< weight panels; empty until prepare_inference
  QuantizedWeights quant_;      ///< int8 weights; empty = f32 serving
  std::vector<int8_t> qpacked_; ///< int8 A panels; empty until prepare
};

}  // namespace tbnet::nn
