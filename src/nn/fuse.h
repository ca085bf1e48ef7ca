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
// memory accounting. Depthwise convolutions fold the same way since they
// grew an optional bias (model format v2), so MobileNet-style TA images
// shrink like the conv ones; Sequential's fusion plan still executes any
// remaining dw+BN+ReLU run as a single pass at runtime.
//
// Folding is destructive for training: the folded conv can no longer be
// fine-tuned as conv+BN. Apply it only to deployment clones — DeployedTBNet
// and TwoBranchModel::fold_batchnorm() do this; nothing in the training or
// pruning pipeline calls it.

#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/sequential.h"

namespace tbnet::nn {

/// Folds every [Conv2d -> BatchNorm2d] and [DepthwiseConv2d -> BatchNorm2d]
/// pair in `seq` (recursing into nested Sequentials) into the conv, removing
/// the BN layers. Returns the number of folds performed. ResidualBlock
/// members are left intact (their fused eval path handles BN in the
/// epilogue).
int fold_batchnorm_inference(Sequential& seq);

/// Fused depthwise→pointwise forward (eval-only, fast kernels):
///
///   y = pw_ep( PW_1x1( dw_act(DW(x) * dw_scale[c] + dw_shift[c]) ) )
///
/// without ever materializing the depthwise output tensor. The pointwise
/// conv's GEMM is C[out_c, oh*ow] = W[out_c, in_c] * D[in_c, oh*ow], where
/// row c of D is depthwise output plane c — so the packed driver's B-panel
/// producer (packdetail::run_packed_b_producer) asks the depthwise row
/// kernel (simd::dw_row_kernel) for each [kc x 16] slab directly, and the
/// NCHW intermediate never exists. Each depthwise output element lands in
/// exactly one panel, so nothing is computed twice, and the row kernel's
/// segment-invariance contract makes the result bit-identical to running
/// dw.forward_fused followed by pw.forward_fused.
///
/// Requirements (the Sequential fusion planner enforces them): pw is 1x1
/// stride-1 pad-0 with in_channels == dw.channels(); dw.options().kernel <=
/// DepthwiseConv2d::kMaxSimdKernel. dw_scale /
/// dw_shift are per-channel (nullptr = identity) and must already compose
/// dw's own bias; pw_ep rows are pointwise output channels and must compose
/// pw's bias. Uses pw.packed_weight() when prepare_inference cached it, else
/// packs per call from ctx's arena.
Tensor forward_depthwise_pointwise(ExecutionContext& ctx, const Tensor& x,
                                   const DepthwiseConv2d& dw,
                                   const float* dw_scale,
                                   const float* dw_shift, simd::Act dw_act,
                                   const Conv2d& pw, const GemmEpilogue& pw_ep);

/// Size gate for the dw→pw producer fusion. The fused form wins by never
/// materializing the depthwise map, but its pointwise GEMM has k =
/// `channels` — on SHALLOW maps (k <= 32) that is too little arithmetic to
/// amortize producing each B panel, and on WIDE maps (`cols` = oh*ow of the
/// depthwise output >= 1024) there are many panels to produce, so the
/// combination measured ~0.75x the back-to-back pair (PR 4,
/// BENCH_kernels.json "depthwise_fused", dwpw_32to64_32x32_s1). Deeper
/// stacks amortize fine and narrow maps produce few panels, so everything
/// else stays fused. Sequential's plan keeps the fused step and consults
/// this per input shape at dispatch; both paths are bit-identical, so the
/// gate is a pure latency knob.
bool fuse_dw_pw_profitable(int64_t channels, int64_t cols);

}  // namespace tbnet::nn
