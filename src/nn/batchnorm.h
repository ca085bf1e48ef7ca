#pragma once
// BatchNorm2d — per-channel batch normalization over NCHW activations.
//
// The BN scale parameters (gamma) carry double duty in TBNet: besides
// normalizing activations they are the channel-importance signal driving the
// iterative two-branch pruning (network-slimming style), and the L1 sparsity
// penalty in Eq. 1 of the paper is applied to them.

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace tbnet::nn {

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  /// Builds the layer from its state: `gamma`, `beta`, `running_mean` and
  /// `running_var` are [channels] each (else std::invalid_argument). The
  /// model loader and clone() build layers this way.
  BatchNorm2d(Tensor gamma, Tensor beta, Tensor running_mean,
              Tensor running_var, float eps, float momentum);

  using Layer::forward;
  using Layer::backward;
  Tensor forward(ExecutionContext& ctx, const Tensor& input,
                 bool train) override;
  Tensor backward(ExecutionContext& ctx, const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string kind() const override { return "BatchNorm2d"; }
  std::unique_ptr<Layer> clone() const override;
  Shape out_shape(const Shape& in) const override;
  int64_t macs(const Shape& in) const override;
  int64_t param_bytes() const override;

  int64_t channels() const { return channels_; }
  float eps() const { return eps_; }
  float momentum() const { return momentum_; }

  Tensor& gamma() { return gamma_; }
  const Tensor& gamma() const { return gamma_; }
  Tensor& gamma_grad() { return gamma_grad_; }
  Tensor& beta() { return beta_; }
  const Tensor& beta() const { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  const Tensor& running_mean() const { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& running_var() const { return running_var_; }

  /// Keeps only the listed channels (gamma/beta/running stats).
  void select_channels(const std::vector<int64_t>& keep);

  /// Writes eval-mode BN as an affine map: y = x * scale[c] + shift[c] with
  /// scale = gamma / sqrt(running_var + eps), shift = beta - mean * scale.
  /// This is what the fused conv epilogue and deploy-time folding consume.
  void inference_scale_shift(float* scale, float* shift) const;

 private:
  int64_t channels_;
  float eps_, momentum_;
  Tensor gamma_, gamma_grad_;
  Tensor beta_, beta_grad_;
  Tensor running_mean_, running_var_;

  // Forward cache (train mode).
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
};

}  // namespace tbnet::nn
