#pragma once
// Depthwise 2-D convolution — one k x k filter per channel.
//
// Building block of the depthwise-separable (MobileNet-style) family, which
// extends TBNet beyond the paper's VGG/ResNet evaluation: edge deployments
// overwhelmingly use separable convolutions, and the two-branch pruning
// machinery must handle their channel-coupled structure (a depthwise layer's
// input and output channels are the same set).

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/rng.h"
#include "tensor/simd.h"

namespace tbnet::nn {

class DepthwiseConv2d : public Layer {
 public:
  struct Options {
    int64_t kernel = 3;
    int64_t stride = 1;
    int64_t pad = 1;
    bool bias = false;  ///< usually false: BatchNorm follows.
  };

  /// Draws the taps from `rng` (kaiming_normal); a bias starts at zero.
  DepthwiseConv2d(int64_t channels, const Options& opt, Rng& rng);

  /// Builds the layer from its weights: `weight` is [channels, kernel,
  /// kernel], `bias` is [channels] when opt.bias and empty otherwise (else
  /// std::invalid_argument).
  DepthwiseConv2d(const Options& opt, Tensor weight, Tensor bias = Tensor());

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;

  /// Eval-only fused forward: y = act(dw(x) * scale[c] + shift[c]) applied
  /// inside the accumulation loop — a depthwise layer is one pass already,
  /// so fusing the following BN/ReLU removes two full passes over the map.
  /// `scale`/`shift` must already compose this layer's own bias if any
  /// (shift[c] = bias[c] * scale[c] + bn_shift[c]); Sequential's fusion plan
  /// builds them that way. nullptr means identity. Runs the dispatched row
  /// kernel (simd::dw_row_kernel; the scalar one under
  /// TBNET_DETERMINISTIC=1). Rejects Act values the kernels don't know
  /// (simd::require_known_act) instead of mis-applying them.
  Tensor forward_fused(ExecutionContext& ctx, const Tensor& input,
                       const float* scale, const float* shift, simd::Act act);

  /// The scalar per-pixel reference kernel, which the scalar row kernel
  /// TBNET_DETERMINISTIC=1 selects matches bit for bit. Exported so the
  /// parity suite and bench_kernels can compare the dispatched row kernel
  /// against it in the same process. Eval-only: never caches the input.
  Tensor forward_reference(ExecutionContext& ctx, const Tensor& input,
                           const float* scale = nullptr,
                           const float* shift = nullptr,
                           simd::Act act = simd::Act::kNone);

  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "DepthwiseConv2d"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;

  /// Widest kernel the SIMD path's stack-resident row-pointer array covers;
  /// wider filters (unseen in practice) run the reference loop, and the
  /// dw→pointwise fusion planner skips them.
  static constexpr int64_t kMaxSimdKernel = 16;

  int64_t channels() const { return channels_; }
  const Options& options() const { return opt_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  bool has_bias() const { return opt_.bias; }

  /// Keeps only the listed channels (input and output are the same set).
  void select_channels(const std::vector<int64_t>& keep);

  /// Deploy-time BN folding: scales each channel's taps by scale[c] and adds
  /// shift[c] into the bias (creating the bias if absent), so a following
  /// eval-mode BatchNorm can be removed — the depthwise analogue of
  /// Conv2d::fuse_scale_shift, which is what lets MobileNet-style TA images
  /// ship without their depthwise BN layers.
  void fuse_scale_shift(const float* scale, const float* shift);

 private:
  Tensor forward_impl(ExecutionContext& ctx, const Tensor& input, bool train,
                      const float* scale, const float* shift, simd::Act act);
  Tensor forward_simd(ExecutionContext& ctx, const Tensor& input,
                      const float* scale, const float* shift, simd::Act act);

  int64_t out_hw(int64_t in, int64_t pad, int64_t k, int64_t s) const {
    return (in + 2 * pad - k) / s + 1;
  }

  int64_t channels_;
  Options opt_;
  Tensor weight_, weight_grad_;  ///< [channels, kernel, kernel]
  Tensor bias_, bias_grad_;      ///< [channels]; empty unless opt_.bias
  Tensor cached_input_;
};

}  // namespace tbnet::nn
