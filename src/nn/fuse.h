#pragma once
// fuse.h — deploy-time BatchNorm folding.
//
// An inference-mode BatchNorm2d is the affine map y = x*scale[c] + shift[c]
// (BatchNorm2d::inference_scale_shift). When it directly follows a Conv2d
// over the same channels, the affine folds into the conv weights and bias:
//
//   W'[o, ...] = W[o, ...] * scale[o]
//   b'[o]      = b[o] * scale[o] + shift[o]
//
// so the deployed model ships without the BN layer at all — no extra pass
// over the feature map, a smaller TA image, and one fewer layer of secure
// memory accounting.
//
// Folding is destructive for training: the folded conv can no longer be
// fine-tuned as conv+BN. Apply it only to deployment clones — DeployedTBNet
// and TwoBranchModel::fold_batchnorm() do this; nothing in the training or
// pruning pipeline calls it.

#include "nn/sequential.h"

namespace tbnet::nn {

/// Folds every [Conv2d -> BatchNorm2d] pair in `seq` (recursing into nested
/// Sequentials) into the conv, removing the BN layers. Returns the number of
/// folds performed. ResidualBlock members are left intact (their fused eval
/// path handles BN in the epilogue).
int fold_batchnorm_inference(Sequential& seq);

}  // namespace tbnet::nn
