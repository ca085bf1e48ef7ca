#include "nn/dense.h"

#include <stdexcept>
#include <utility>

#include "nn/init.h"
#include "tensor/gemm.h"

namespace tbnet::nn {

Dense::Dense(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : Dense(kaiming_normal(Shape{out_features, in_features}, in_features, rng),
            bias ? Tensor(Shape{out_features}) : Tensor()) {}

Dense::Dense(Tensor weight, Tensor bias)
    : has_bias_(!bias.empty()),
      weight_(std::move(weight)),
      bias_(std::move(bias)) {
  const Shape& ws = weight_.shape();
  if (ws.ndim() != 2 || ws.dim(0) <= 0 || ws.dim(1) <= 0) {
    throw std::invalid_argument("Dense: weight " + ws.str() +
                                " is not [out_features, in_features]");
  }
  out_f_ = ws.dim(0);
  in_f_ = ws.dim(1);
  if (has_bias_ && bias_.shape() != Shape{out_f_}) {
    throw std::invalid_argument("Dense: bias must be [out_features]");
  }
  weight_grad_ = Tensor(ws);
  if (has_bias_) bias_grad_ = Tensor(Shape{out_f_});
}

Shape Dense::out_shape(const Shape& in) const {
  if (in.ndim() != 2 || in.dim(1) != in_f_) {
    throw std::invalid_argument("Dense: expected [N, " + std::to_string(in_f_) +
                                "], got " + in.str());
  }
  return Shape{in.dim(0), out_f_};
}

int64_t Dense::macs(const Shape& in) const {
  return out_shape(in).dim(0) * out_f_ * in_f_;
}

Tensor Dense::forward(ExecutionContext& ctx, const Tensor& input, bool train) {
  return forward_impl(ctx, input, train, simd::Act::kNone);
}

Tensor Dense::forward_fused(ExecutionContext& ctx, const Tensor& input,
                            simd::Act act) {
  simd::require_known_act(act);  // rejected here, before any tier reads it
  return forward_impl(ctx, input, /*train=*/false, act);
}

Tensor Dense::forward_impl(ExecutionContext& ctx, const Tensor& input,
                           bool train, simd::Act act) {
  if (!train && !quant_.empty()) {
    out_shape(input.shape());  // validate
    return forward_int8(ctx, input, act);
  }
  const Shape os = out_shape(input.shape());
  const int64_t n = input.dim(0);
  Tensor out(os);
  // out[n, out_f] = x[n, in_f] * W^T (W is [out_f, in_f]). Bias and the
  // fused activation are per output feature, i.e. per column of out.
  GemmEpilogue ep;
  if (has_bias_) ep.col_shift = bias_.data();
  ep.act = act;
  if (!train && !packed_.empty()) {
    packed_.run_with_a(ctx, n, 1.0f, input.data(), 0.0f, out.data(), ep);
  } else {
    gemm_nt(ctx, n, out_f_, in_f_, 1.0f, input.data(), weight_.data(), 0.0f,
            out.data(), ep);
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor Dense::forward_int8(ExecutionContext& ctx, const Tensor& input,
                           simd::Act act) {
  const int64_t n = input.dim(0);
  Tensor out(Shape{n, out_f_});
  ArenaScope scope(ctx.arena());
  // Same dequantization composition as Conv2d::forward_int8, with the bias
  // riding the shift term (the f32 path's per-column bias becomes per-row in
  // the transposed GEMM).
  float* S = ctx.arena().alloc(out_f_);
  float* T = ctx.arena().alloc(out_f_);
  compose_quant_epilogue(quant_, nullptr, has_bias_ ? bias_.data() : nullptr,
                         out_f_, S, T);
  const simd::QuantEpilogue qep{S, T, act};
  const int8_t* apack;
  if (!qpacked_.empty()) {
    apack = qpacked_.data();
  } else {
    const int64_t bytes = packdetail::packed_a_i8_bytes(out_f_, in_f_);
    int8_t* ap = reinterpret_cast<int8_t*>(ctx.arena().alloc((bytes + 3) / 4));
    packdetail::pack_a_i8(out_f_, in_f_, quant_.q.data(), in_f_, ap);
    apack = ap;
  }
  const float inv = 1.0f / quant_.act.scale;
  const int32_t zp = quant_.act.zero_point;
  const float* x = input.data();
  const int64_t in_f = in_f_;
  // C^T[out_f, n] = W_q * X_q^T: B column j is input row j0+j, quantized
  // straight from the batch. Each output element's integer dot product is
  // independent of which tile its column lands in, so batched serving stays
  // bit-identical to per-sample calls.
  float* ct = ctx.arena().alloc(out_f_ * n);
  packdetail::run_packed_i8_producer(
      ctx, out_f_, n, in_f_, apack,
      [x, in_f, inv, zp](int64_t kk, int64_t kc, int64_t j0, int nr,
                         uint8_t* panel) {
        const int64_t kg = (kc + simd::kKG - 1) / simd::kKG;
        for (int64_t gi = 0; gi < kg; ++gi) {
          uint8_t* grp = panel + gi * simd::kNR * simd::kKG;
          for (int64_t j = 0; j < simd::kNR; ++j) {
            for (int64_t t = 0; t < simd::kKG; ++t) {
              const int64_t p = gi * simd::kKG + t;
              grp[j * simd::kKG + t] =
                  p < kc && j < nr
                      ? simd::quantize_u7(x[(j0 + j) * in_f + kk + p], inv, zp)
                      : uint8_t{0};
            }
          }
        }
      },
      ct, n, qep);
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * out_f_;
    for (int64_t o = 0; o < out_f_; ++o) row[o] = ct[o * n + i];
  }
  return out;
}

void Dense::set_quantized(QuantizedWeights qw) {
  if (!qw.empty() &&
      (qw.q.size() != static_cast<size_t>(out_f_ * in_f_) ||
       qw.scale.size() != static_cast<size_t>(out_f_) ||
       qw.qsum.size() != static_cast<size_t>(out_f_) ||
       qw.act.scale <= 0.0f)) {
    throw std::invalid_argument("Dense::set_quantized: shape mismatch");
  }
  quant_ = std::move(qw);
  packed_.clear();
  qpacked_.clear();
}

void Dense::prepare_inference(ExecutionContext& ctx) {
  if (!quant_.empty()) {
    qpacked_.resize(
        static_cast<size_t>(packdetail::packed_a_i8_bytes(out_f_, in_f_)));
    packdetail::pack_a_i8(out_f_, in_f_, quant_.q.data(), in_f_,
                          qpacked_.data());
    return;
  }
  // Heads narrower than one vector tile (e.g. 10-class logits) are better
  // served by the per-element dot path gemm_nt takes for n < kNR; packing
  // would force them through the mostly-padding tile path.
  if (out_f_ < simd::kNR) return;
  packed_.pack_b_transposed(out_f_, in_f_, weight_.data(), &ctx.arena());
}

Tensor Dense::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Dense::backward before forward(train)");
  }
  const Tensor& x = cached_input_;
  const int64_t n = x.dim(0);
  if (grad_output.shape() != Shape{n, out_f_}) {
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  }
  // dW[out_f, in_f] += dy^T[out_f, n] * x[n, in_f]
  gemm_tn(ctx, out_f_, in_f_, n, 1.0f, grad_output.data(), x.data(), 1.0f,
          weight_grad_.data());
  if (has_bias_) {
    for (int64_t i = 0; i < n; ++i) {
      const float* row = grad_output.data() + i * out_f_;
      for (int64_t j = 0; j < out_f_; ++j) bias_grad_[j] += row[j];
    }
  }
  // dx[n, in_f] = dy[n, out_f] * W[out_f, in_f]
  Tensor grad_input(x.shape());
  gemm_nn(ctx, n, in_f_, out_f_, 1.0f, grad_output.data(), weight_.data(),
          0.0f, grad_input.data());
  return grad_input;
}

std::vector<ParamRef> Dense::params() {
  std::vector<ParamRef> ps;
  ps.push_back({"weight", &weight_, &weight_grad_, /*decay=*/true});
  if (has_bias_) ps.push_back({"bias", &bias_, &bias_grad_, /*decay=*/false});
  return ps;
}

std::unique_ptr<Layer> Dense::clone() const {
  // Built from the layer's state, like Conv2d::clone: no forward cache, no
  // packs, zero gradients; quantized weights are model state and survive.
  auto copy = std::make_unique<Dense>(weight_, bias_);
  copy->quant_ = quant_;
  return copy;
}

void Dense::select_in_features(const std::vector<int64_t>& keep) {
  if (keep.empty()) {
    throw std::invalid_argument("Dense: cannot prune all input features");
  }
  packed_.clear();
  quant_ = QuantizedWeights();
  qpacked_.clear();
  const int64_t k = static_cast<int64_t>(keep.size());
  Tensor w(Shape{out_f_, k});
  for (int64_t o = 0; o < out_f_; ++o) {
    const float* src = weight_.data() + o * in_f_;
    float* dst = w.data() + o * k;
    for (int64_t i = 0; i < k; ++i) {
      const int64_t idx = keep[static_cast<size_t>(i)];
      if (idx < 0 || idx >= in_f_) {
        throw std::out_of_range("Dense::select_in_features: index out of range");
      }
      dst[i] = src[idx];
    }
  }
  weight_ = std::move(w);
  weight_grad_ = Tensor(weight_.shape());
  in_f_ = k;
  cached_input_ = Tensor();
}

void Dense::select_in_channels(const std::vector<int64_t>& keep,
                               int64_t features_per_channel) {
  if (features_per_channel <= 0 ||
      in_f_ % features_per_channel != 0) {
    throw std::invalid_argument(
        "Dense::select_in_channels: in_features not divisible by "
        "features_per_channel");
  }
  std::vector<int64_t> feature_keep;
  feature_keep.reserve(keep.size() * static_cast<size_t>(features_per_channel));
  for (int64_t ch : keep) {
    for (int64_t f = 0; f < features_per_channel; ++f) {
      feature_keep.push_back(ch * features_per_channel + f);
    }
  }
  select_in_features(feature_keep);
}

}  // namespace tbnet::nn
