#pragma once
// ResidualBlock — CIFAR-style basic block (He et al.).
//
//   out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + skip(x) )
//
// skip(x) is the identity when shapes match, otherwise a strided 1x1
// convolution + BN ("downsample"). This is the secure-branch (M_T) block for
// ResNet victims; the unsecured branch M_R uses the plain (skip-free)
// Sequential version of the same stack, per the paper's initialization rule.

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/sequential.h"

namespace tbnet::nn {

class ResidualBlock : public Layer {
 public:
  /// `internal_c` is the width between conv1 and conv2 (out_c when 0);
  /// the model loader builds pruned blocks at their stored width.
  ResidualBlock(int64_t in_c, int64_t out_c, int64_t stride, Rng& rng,
                int64_t internal_c = 0);

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "ResidualBlock"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;
  int64_t param_bytes() const override;

  bool has_downsample() const { return down_conv_ != nullptr; }
  int64_t in_channels() const { return in_c_; }
  int64_t out_channels() const { return out_c_; }
  int64_t internal_channels() const { return conv1_->out_channels(); }
  int64_t stride() const { return stride_; }

  Conv2d& conv1() { return *conv1_; }
  BatchNorm2d& bn1() { return *bn1_; }
  Conv2d& conv2() { return *conv2_; }
  BatchNorm2d& bn2() { return *bn2_; }
  /// Downsample path accessors; only valid when has_downsample().
  Conv2d& down_conv() { return *down_conv_; }
  BatchNorm2d& down_bn() { return *down_bn_; }

  /// Prunes the block-internal channels (conv1 outputs / bn1 / conv2 inputs);
  /// the block's external interface (in_c, out_c) is unchanged, which keeps
  /// the skip path and the fusion interface intact.
  void prune_internal(const std::vector<int64_t>& keep);

  /// Packs the conv weights and switches eval-mode forward to the fused
  /// path: conv1+BN1+ReLU and conv2+BN2 (and the downsample conv+BN) each
  /// run as a single GEMM with the BN affine in the epilogue. The block's
  /// structure (and thus serialization) is unchanged; clone() resets to the
  /// unfused path. See Layer::prepare_inference for the contract.
  void prepare_inference(ExecutionContext& ctx) override;

 private:
  Tensor forward_fused_eval(ExecutionContext& ctx, const Tensor& input);

  int64_t in_c_, out_c_, stride_;
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> down_conv_;      // nullptr if identity skip
  std::unique_ptr<BatchNorm2d> down_bn_;

  // Forward caches.
  std::vector<uint8_t> relu1_mask_, relu_out_mask_;
  Tensor cached_input_;
  Shape mid_shape_, out_shape_cache_;
  bool prepared_ = false;  ///< set by prepare_inference
  // Composed BN scale/shift for the fused eval path, cached by
  // prepare_inference (the block is frozen once prepared).
  std::vector<float> fused_s1_, fused_t1_, fused_s2_, fused_t2_;
  std::vector<float> fused_sd_, fused_td_;  ///< downsample; empty without one
};

/// Builds the skip-free ("plain") Sequential version of a residual block:
/// Conv1-BN1-ReLU-Conv2-BN2-ReLU. Weights are freshly initialized; use
/// copy_main_branch() to fill them from a victim block.
Sequential plain_block_like(const ResidualBlock& block, Rng& rng);

/// Copies conv/BN weights of `src`'s main branch into a plain block created
/// by plain_block_like().
void copy_main_branch(const ResidualBlock& src, Sequential& dst);

}  // namespace tbnet::nn
