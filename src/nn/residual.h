#pragma once
// ResidualBlock — CIFAR-style basic block (He et al.).
//
//   out = ReLU( BN2(Conv2(ReLU(BN1(Conv1(x))))) + skip(x) )
//
// skip(x) is the identity when shapes match, otherwise a strided 1x1
// convolution + BN ("downsample"). This is the secure-branch (M_T) block for
// ResNet victims; the unsecured branch M_R uses the plain (skip-free)
// Sequential version of the same stack, per the paper's initialization rule
// (plain_main_branch below).
//
// A block is built from its six members and owns them. The member rule:
// conv1 is 3x3 at the block's stride, pad 1, no bias; conv2 is 3x3, stride
// 1, pad 1, no bias; bn1 and bn2 are as wide as the convs they follow; a 1x1
// downsample conv (at the block's stride, pad 0, no bias) and its BN are
// present exactly when stride != 1 or in_c != out_c. The seeded constructor,
// clone() and the model loader all end in the one constructor that checks
// it, so a parsed block cannot carry a member the block would ignore.

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"
#include "nn/sequential.h"

namespace tbnet::nn {

class ResidualBlock : public Layer {
 public:
  /// A block's six members; the downsample pair is null for an identity
  /// skip.
  struct Members {
    std::unique_ptr<Conv2d> conv1;
    std::unique_ptr<BatchNorm2d> bn1;
    std::unique_ptr<Conv2d> conv2;
    std::unique_ptr<BatchNorm2d> bn2;
    std::unique_ptr<Conv2d> down_conv;
    std::unique_ptr<BatchNorm2d> down_bn;
  };

  /// A fresh block: conv1, conv2 and then down_conv (when the skip needs
  /// one) draw their weights from `rng` in that order. `internal_c` is the
  /// width between conv1 and conv2 (out_c when 0).
  ResidualBlock(int64_t in_c, int64_t out_c, int64_t stride, Rng& rng,
                int64_t internal_c = 0);

  /// Builds the block from its members. Throws std::runtime_error unless
  /// they follow the member rule (file comment); the block's in/out widths
  /// and stride are conv1's inputs, conv2's outputs and conv1's stride.
  explicit ResidualBlock(Members members);

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
  int64_t in_channels() const { return conv1_->in_channels(); }
  int64_t out_channels() const { return conv2_->out_channels(); }
  int64_t internal_channels() const { return conv1_->out_channels(); }
  int64_t stride() const { return conv1_->options().stride; }

  Conv2d& conv1() { return *conv1_; }
  const Conv2d& conv1() const { return *conv1_; }
  BatchNorm2d& bn1() { return *bn1_; }
  const BatchNorm2d& bn1() const { return *bn1_; }
  Conv2d& conv2() { return *conv2_; }
  const Conv2d& conv2() const { return *conv2_; }
  BatchNorm2d& bn2() { return *bn2_; }
  const BatchNorm2d& bn2() const { return *bn2_; }
  /// Downsample path accessors; only valid when has_downsample().
  Conv2d& down_conv() { return *down_conv_; }
  const Conv2d& down_conv() const { return *down_conv_; }
  BatchNorm2d& down_bn() { return *down_bn_; }
  const BatchNorm2d& down_bn() const { return *down_bn_; }

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

  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> down_conv_;      // nullptr if identity skip
  std::unique_ptr<BatchNorm2d> down_bn_;

  // Forward caches.
  std::vector<uint8_t> relu1_mask_, relu_out_mask_;
  Shape out_shape_cache_;
  bool prepared_ = false;  ///< set by prepare_inference
  // Composed BN scale/shift for the fused eval path, cached by
  // prepare_inference (the block is frozen once prepared).
  std::vector<float> fused_s1_, fused_t1_, fused_s2_, fused_t2_;
  std::vector<float> fused_sd_, fused_td_;  ///< downsample; empty without one
};

/// M_R's skip-free ("plain") version of a residual block, built from clones
/// of its main-branch members: Conv1-BN1-ReLU-Conv2-BN2-ReLU, with the
/// block's weights (paper §4: for ResNet, M_R starts from the victim's main
/// branch without the skip connection).
Sequential plain_main_branch(const ResidualBlock& block);

}  // namespace tbnet::nn
