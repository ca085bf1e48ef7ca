#include "nn/quant.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/simd.h"

namespace tbnet::nn {

ActQuant act_quant_from_range(float lo, float hi) {
  lo = std::min(lo, 0.0f);
  hi = std::max(hi, 0.0f);
  ActQuant aq;
  if (hi <= lo || !std::isfinite(lo) || !std::isfinite(hi)) return aq;
  aq.scale = (hi - lo) / 127.0f;
  // zp maps real 0.0 onto the grid; post-ReLU ranges (lo == 0) get zp == 0.
  const int32_t zp = static_cast<int32_t>(lrintf(-lo / aq.scale));
  aq.zero_point = std::clamp(zp, 0, 127);
  return aq;
}

QuantizedWeights quantize_weights(const float* w, int64_t out, int64_t k,
                                  const ActQuant& act) {
  QuantizedWeights qw;
  qw.q.resize(static_cast<size_t>(out * k));
  qw.scale.resize(static_cast<size_t>(out));
  qw.qsum.resize(static_cast<size_t>(out));
  qw.act = act;
  for (int64_t o = 0; o < out; ++o) {
    const float* row = w + o * k;
    float amax = 0.0f;
    for (int64_t j = 0; j < k; ++j) amax = std::max(amax, std::fabs(row[j]));
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    int8_t* qrow = qw.q.data() + o * k;
    int32_t sum = 0;
    for (int64_t j = 0; j < k; ++j) {
      int32_t q = static_cast<int32_t>(lrintf(row[j] * inv));
      q = std::clamp(q, -127, 127);
      qrow[j] = static_cast<int8_t>(q);
      sum += q;
    }
    qw.scale[static_cast<size_t>(o)] = scale;
    qw.qsum[static_cast<size_t>(o)] = sum;
  }
  return qw;
}

void compose_quant_epilogue(const QuantizedWeights& qw, const float* rs,
                            const float* rh, int64_t out, float* S, float* T) {
  const float as = qw.act.scale;
  const float zpf = static_cast<float>(qw.act.zero_point);
  for (int64_t o = 0; o < out; ++o) {
    const float s = qw.scale[static_cast<size_t>(o)] * as *
                    (rs != nullptr ? rs[o] : 1.0f);
    S[o] = s;
    T[o] = (rh != nullptr ? rh[o] : 0.0f) -
           zpf * static_cast<float>(qw.qsum[static_cast<size_t>(o)]) * s;
  }
}

namespace {

/// Observed min/max over a whole tensor.
void observe(const Tensor& t, float* lo, float* hi) {
  float mn = 0.0f, mx = 0.0f;
  const int64_t n = t.numel();
  if (n > 0) {
    mn = mx = t.data()[0];
    for (int64_t i = 1; i < n; ++i) {
      const float v = t.data()[i];
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  *lo = mn;
  *hi = mx;
}

/// Quantizes a Conv2d from the observed input range of `x` AFTER running its
/// f32 forward (so downstream calibration statistics stay pure f32).
Tensor walk_conv(Conv2d& conv, ExecutionContext& ctx, const Tensor& x,
                 int* count) {
  float lo, hi;
  observe(x, &lo, &hi);
  Tensor y = conv.forward(ctx, x, /*train=*/false);
  conv.set_quantized(quantize_weights(
      conv.weight().data(), conv.out_channels(),
      conv.in_channels() * conv.options().kernel * conv.options().kernel,
      act_quant_from_range(lo, hi)));
  if (count != nullptr) ++*count;
  return y;
}

Tensor walk(Layer& layer, ExecutionContext& ctx, const Tensor& x, int* count);

/// Mirrors ResidualBlock's unfused eval dataflow (conv1→bn1→relu→conv2→bn2,
/// downsample, add, relu) so both 3x3 convs and the downsample 1x1 see their
/// true calibration inputs. The BNs are NOT folded inside a block (the fused
/// eval path applies them in the epilogue), so they run here as layers.
Tensor walk_residual(ResidualBlock& rb, ExecutionContext& ctx, const Tensor& x,
                     int* count) {
  Tensor mid = walk_conv(rb.conv1(), ctx, x, count);
  mid = rb.bn1().forward(ctx, mid, /*train=*/false);
  relu_forward(mid.numel(), mid.data(), nullptr, nullptr);
  Tensor main = walk_conv(rb.conv2(), ctx, mid, count);
  main = rb.bn2().forward(ctx, main, /*train=*/false);
  Tensor down;
  if (rb.has_downsample()) {
    down = walk_conv(rb.down_conv(), ctx, x, count);
    down = rb.down_bn().forward(ctx, down, /*train=*/false);
  }
  const Tensor& skip = rb.has_downsample() ? down : x;
  if (skip.shape() != main.shape()) {
    throw std::logic_error("quantize_for_inference: skip/main shape mismatch");
  }
  relu_forward(main.numel(), main.data(), skip.data(), nullptr);
  return main;
}

Tensor walk(Layer& layer, ExecutionContext& ctx, const Tensor& x, int* count) {
  if (auto* seq = dynamic_cast<Sequential*>(&layer)) {
    Tensor y = x;
    for (int i = 0; i < seq->size(); ++i) {
      y = walk(seq->layer(i), ctx, y, count);
    }
    return y;
  }
  if (auto* rb = dynamic_cast<ResidualBlock*>(&layer)) {
    return walk_residual(*rb, ctx, x, count);
  }
  if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
    return walk_conv(*conv, ctx, x, count);
  }
  if (auto* dense = dynamic_cast<Dense*>(&layer)) {
    if (dense->out_features() >= simd::kNR) {
      float lo, hi;
      observe(x, &lo, &hi);
      Tensor y = dense->forward(ctx, x, /*train=*/false);
      dense->set_quantized(quantize_weights(dense->weight().data(),
                                            dense->out_features(),
                                            dense->in_features(),
                                            act_quant_from_range(lo, hi)));
      if (count != nullptr) ++*count;
      return y;
    }
  }
  return layer.forward(ctx, x, /*train=*/false);
}

}  // namespace

Tensor quantize_for_inference(Layer& root, ExecutionContext& ctx,
                              const Tensor& calib, int* count) {
  if (count != nullptr) *count = 0;
  return walk(root, ctx, calib, count);
}

}  // namespace tbnet::nn
