#pragma once
// nn/quant.h — post-training int8 quantization for deployed models.
//
// The quantization scheme matches the kernels' exactness contract (see
// tensor/simd.h): weights are per-output-channel SYMMETRIC s8 in [-127, 127]
// and activations are AFFINE u7 in [0, 127], so every s8 x u8 product pair
// fits pmaddubsw without saturation and the whole i32 dot product is exact —
// which is what makes the quantized path bit-identical across the scalar
// reference, the AVX2 maddubs tier, and both VNNI tiers.
//
// Quantization is a deploy-time pass, like BN folding: quantize_for_inference
// walks a frozen deployment clone with a small calibration batch, records the
// observed input range of every eligible Conv2d / Dense, and attaches
// QuantizedWeights to each. It runs AFTER fold_batchnorm_inference (so conv
// weights already absorb the BN affine where folding applies) and BEFORE
// prepare_inference (which then packs the int8 panels instead of the f32
// ones). Nothing in the training or pruning pipeline calls it.
//
// Dequantization rides the existing GemmEpilogue machinery: for output
// channel o with weight scale ws[o], activation quantizer (s, zp), and an
// external per-row affine (rs, rh) — a ResidualBlock's BN epilogue, or just
// the bias —
//
//   y[o, j] = act( acc[o, j] * S[o] + T[o] )
//   S[o] = ws[o] * s * rs[o]
//   T[o] = rh[o] - zp * qsum[o] * ws[o] * s * rs[o]
//
// where qsum[o] = sum_k qw[o, k] cancels the activation zero point exactly
// (padding zeros included — 0.0f quantizes to zp).

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/tensor.h"

namespace tbnet::nn {

/// Affine u7 activation quantizer: q = clamp(lrintf(x / scale) + zero_point,
/// 0, 127) — see simd::quantize_u7, the single rounding authority.
struct ActQuant {
  float scale = 1.0f;
  int32_t zero_point = 0;
};

/// Builds the u7 quantizer covering [lo, hi]. The range is extended to
/// contain 0 so conv padding (and an all-positive post-ReLU range, which
/// gets zero_point = 0) quantizes exactly. A degenerate range maps to the
/// identity-ish (scale 1, zp 0) quantizer.
ActQuant act_quant_from_range(float lo, float hi);

/// Per-output-channel symmetric int8 weights plus the input-activation
/// quantizer, attached to a Conv2d / Dense by quantize_for_inference.
struct QuantizedWeights {
  std::vector<int8_t> q;     ///< [out, k] row-major, clamp(lrintf(w/scale[o]))
  std::vector<float> scale;  ///< per channel: max|w[o, :]| / 127 (1 if all 0)
  std::vector<int32_t> qsum; ///< per channel: sum_k q[o, k] (zp correction)
  ActQuant act;              ///< quantizer of the layer INPUT

  bool empty() const { return q.empty(); }
};

/// Quantizes `w` ([out, k] row-major) per-output-channel symmetric and
/// attaches `act` as the input quantizer.
QuantizedWeights quantize_weights(const float* w, int64_t out, int64_t k,
                                  const ActQuant& act);

/// Composes the per-row dequantization affine the int8 kernels consume (the
/// S/T of the header comment): S[o] = ws[o]*s*rs[o], T[o] = rh[o] -
/// zp*qsum[o]*ws[o]*s*rs[o], with nullptr rs/rh meaning identity. O(out);
/// S/T are caller storage (normally the call's arena scope). Every int8
/// call site MUST compose through this one function — the quantized path's
/// bit-determinism requires all sites to round these products identically.
void compose_quant_epilogue(const QuantizedWeights& qw, const float* rs,
                            const float* rh, int64_t out, float* S, float* T);

/// Calibration + quantization walker. Runs `calib` (a small representative
/// batch) through `root` in eval mode, mirroring the containers' dataflow
/// (Sequential layer by layer; ResidualBlock's two-path block body), records
/// the input range of every eligible layer, and quantizes it in place:
///
///   - Conv2d: always eligible;
///   - Dense: eligible when out_features >= simd::kNR (narrow logit heads
///     stay f32 — they are latency-trivial and accuracy-critical);
///   - everything else: left f32.
///
/// Each layer is quantized AFTER its own f32 forward, so calibration
/// statistics downstream are pure f32. Returns the network output of the
/// calibration batch (callers can sanity-check it); `count`, when non-null,
/// receives the number of layers quantized. Call only on a frozen deployment
/// clone, after BN folding and before prepare_inference.
Tensor quantize_for_inference(Layer& root, ExecutionContext& ctx,
                              const Tensor& calib, int* count = nullptr);

}  // namespace tbnet::nn
