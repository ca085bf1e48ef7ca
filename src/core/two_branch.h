#pragma once
// TwoBranchModel — TBNet's central data structure (paper §3, Fig. 1).
//
// The model is a list of fusion stages. Stage i holds a block for each
// branch:
//   * `exposed`  (M_R) — runs in the REE; fully visible to the attacker.
//   * `secure`   (M_T) — runs in the TEE; confidential.
//
// Per-stage dataflow (one-way REE -> TEE):
//
//   out_R[i]   = exposed_i(out_R[i-1])
//   out_T[i]   = secure_i(fused[i-1])
//   fused[i]   = out_T[i] + gather(out_R[i], channel_map[i])
//
// The model's user-visible output is fused[last] — produced inside the TEE.
// `channel_map` implements the paper's step 6 alignment: after rollback
// finalization M_R stages emit more channels than M_T consumes, and the TEE
// side extracts exactly the channels matching its own retained ones before
// the element-wise add (paper §3.5). An empty map means identity.

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "tensor/bytes.h"

namespace tbnet::core {

/// One fusion stage: paired REE/TEE blocks + the channel alignment map.
struct FusionStage {
  std::unique_ptr<nn::Layer> exposed;  ///< M_R block (REE)
  std::unique_ptr<nn::Layer> secure;   ///< M_T block (TEE)
  /// Indices into the exposed block's output channels selected for fusion;
  /// empty = identity (all channels, orders match).
  std::vector<int64_t> channel_map;
  /// Whether this stage's REE output is transferred and added into the TEE
  /// branch. The classifier-head stage is NOT fused: the TBNet output is
  /// derived from M_T alone (paper §3.3), and M_R's head — inherited from
  /// the victim — never receives gradients. That is what leaves the
  /// extracted M_R of a ResNet victim at chance accuracy (paper Tab. 1)
  /// while a VGG M_R degrades but stays usable.
  bool fused = true;
};

/// Which chain(s) a forward pass ran through; backward() must match.
enum class ForwardMode {
  kNone,
  kFused,        ///< both branches + per-stage fusion (normal TBNet)
  kSecureOnly,   ///< M_T alone, no REE contribution (paper Tab. 2 ablation)
};

class TwoBranchModel {
 public:
  TwoBranchModel() = default;
  TwoBranchModel(TwoBranchModel&&) = default;
  TwoBranchModel& operator=(TwoBranchModel&&) = default;

  /// Deep copy (used for pruning snapshots / rollback).
  TwoBranchModel clone() const;

  void add_stage(std::unique_ptr<nn::Layer> exposed,
                 std::unique_ptr<nn::Layer> secure);

  int num_stages() const { return static_cast<int>(stages_.size()); }
  FusionStage& stage(int i) { return stages_.at(static_cast<size_t>(i)); }
  const FusionStage& stage(int i) const {
    return stages_.at(static_cast<size_t>(i));
  }

  /// TBNet inference/training pass: returns fused logits (the TEE output).
  /// When `train_exposed` is false the REE branch runs in eval mode and its
  /// activations are not cached (used for the post-rollback fine-tune where
  /// M_R is frozen). The context-taking forms thread `ctx` through every
  /// stage block (arena scratch + pool); the others run on the calling
  /// thread's default context.
  Tensor forward(ExecutionContext& ctx, const Tensor& input, bool train,
                 bool train_exposed = true);
  Tensor forward(const Tensor& input, bool train, bool train_exposed = true);

  /// Runs only the secure chain (in_T[i+1] = out_T[i], no fusion).
  Tensor forward_secure_only(ExecutionContext& ctx, const Tensor& input,
                             bool train);
  Tensor forward_secure_only(const Tensor& input, bool train);

  /// Runs only the exposed chain, in eval mode — exactly what an attacker
  /// who extracted M_R from REE memory can execute.
  Tensor forward_exposed_only(ExecutionContext& ctx, const Tensor& input);
  Tensor forward_exposed_only(const Tensor& input);

  /// Back-propagates dLoss/dlogits through whatever the last forward ran.
  /// With `freeze_exposed` (fused mode only) gradients are not propagated
  /// into the REE branch.
  void backward(ExecutionContext& ctx, const Tensor& grad_logits,
                bool freeze_exposed = false);
  void backward(const Tensor& grad_logits, bool freeze_exposed = false);

  /// All parameters / per-branch parameter views (names are stage-prefixed).
  std::vector<nn::ParamRef> params();
  std::vector<nn::ParamRef> params_secure();
  std::vector<nn::ParamRef> params_exposed();

  void zero_grad();

  /// Bytes of parameters+buffers resident in the TEE (M_T) / REE (M_R).
  int64_t secure_param_bytes() const;
  int64_t exposed_param_bytes() const;

  /// Total channels over the secure branch's BN layers (pruning bookkeeping).
  int64_t secure_bn_channels();

  /// Deploy-time finalization: folds inference-mode BatchNorm into adjacent
  /// conv weights in every stage block of both branches (see nn/fuse.h).
  /// Returns the number of folds. Destructive for further training/pruning —
  /// call it on a clone() kept for serving, as DeployedTBNet does
  /// automatically when building its engine-side copies.
  int fold_batchnorm();

 private:
  std::vector<FusionStage> stages_;

  // Forward bookkeeping for backward().
  ForwardMode last_mode_ = ForwardMode::kNone;
  bool last_train_exposed_ = true;
  std::vector<Shape> exposed_out_shapes_;
};

/// Serializes a two-branch model (both branches + channel maps). Streams
/// carry the nn/serialize.h model-format version (sentinel-prefixed); the
/// loader reads format v4 only, through the bounded ByteReader, and throws
/// std::runtime_error on anything else. It reads exactly one stream of `r`.
void save_two_branch(std::vector<uint8_t>& out, const TwoBranchModel& model);
TwoBranchModel load_two_branch(ByteReader& r);

/// out[:, j, ...] = in[:, map[j], ...] over channel dim 1 (rank 2 or 4).
Tensor gather_channels(const Tensor& in, const std::vector<int64_t>& map);

/// Adjoint of gather_channels: scatters grad rows back into a zero tensor of
/// `full_shape` (duplicated indices accumulate).
Tensor scatter_channels(const Tensor& grad, const std::vector<int64_t>& map,
                        const Shape& full_shape);

}  // namespace tbnet::core
