#include "nn/depthwise.h"

#include <stdexcept>
#include <utility>

#include "nn/init.h"
#include "tensor/threadpool.h"

namespace tbnet::nn {

DepthwiseConv2d::DepthwiseConv2d(int64_t channels, const Options& opt,
                                 Rng& rng)
    : DepthwiseConv2d(opt,
                      kaiming_normal(Shape{channels, opt.kernel, opt.kernel},
                                     opt.kernel * opt.kernel, rng),
                      opt.bias ? Tensor(Shape{channels}) : Tensor()) {}

DepthwiseConv2d::DepthwiseConv2d(const Options& opt, Tensor weight,
                                 Tensor bias)
    : opt_(opt), weight_(std::move(weight)), bias_(std::move(bias)) {
  const Shape& ws = weight_.shape();
  if (ws.ndim() != 3 || ws.dim(0) <= 0 || ws.dim(1) != opt.kernel ||
      ws.dim(2) != opt.kernel) {
    throw std::invalid_argument("DepthwiseConv2d: weight " + ws.str() +
                                " is not [channels, kernel, kernel]");
  }
  channels_ = ws.dim(0);
  if (opt.bias ? bias_.shape() != Shape{channels_} : !bias_.empty()) {
    throw std::invalid_argument("DepthwiseConv2d: bias must be [channels] "
                                "exactly when opt.bias is set");
  }
  weight_grad_ = Tensor(ws);
  if (opt.bias) bias_grad_ = Tensor(Shape{channels_});
}

Shape DepthwiseConv2d::out_shape(const Shape& in) const {
  if (in.ndim() != 4 || in.dim(1) != channels_) {
    throw std::invalid_argument("DepthwiseConv2d: bad input " + in.str());
  }
  if (in.dim(2) + 2 * opt_.pad < opt_.kernel ||
      in.dim(3) + 2 * opt_.pad < opt_.kernel) {
    throw std::invalid_argument(
        "DepthwiseConv2d: window larger than padded input " + in.str());
  }
  return Shape{in.dim(0), channels_,
               out_hw(in.dim(2), opt_.pad, opt_.kernel, opt_.stride),
               out_hw(in.dim(3), opt_.pad, opt_.kernel, opt_.stride)};
}

int64_t DepthwiseConv2d::macs(const Shape& in) const {
  return out_shape(in).numel() * opt_.kernel * opt_.kernel;
}

Tensor DepthwiseConv2d::forward(ExecutionContext& ctx, const Tensor& input,
                                bool train) {
  // The bias rides the fused per-channel affine (scale 1, shift b[c]).
  return forward_impl(ctx, input, train, nullptr,
                      opt_.bias ? bias_.data() : nullptr, simd::Act::kNone);
}

Tensor DepthwiseConv2d::forward_fused(ExecutionContext& ctx,
                                      const Tensor& input, const float* scale,
                                      const float* shift, simd::Act act) {
  return forward_impl(ctx, input, /*train=*/false, scale, shift, act);
}

Tensor DepthwiseConv2d::forward_impl(ExecutionContext& ctx,
                                     const Tensor& input, bool train,
                                     const float* scale, const float* shift,
                                     simd::Act act) {
  // Reject unknown Act values at the boundary: the kernels dispatch on the
  // enum explicitly, so a future value must fail loudly here rather than be
  // silently clamped as ReLU deep in a hot loop.
  simd::require_known_act(act);
  Tensor out = opt_.kernel <= kMaxSimdKernel
                   ? forward_simd(ctx, input, scale, shift, act)
                   : forward_reference(ctx, input, scale, shift, act);
  if (train) cached_input_ = input;
  return out;
}

Tensor DepthwiseConv2d::forward_simd(ExecutionContext& ctx,
                                     const Tensor& input, const float* scale,
                                     const float* shift, simd::Act act) {
  const Shape os = out_shape(input.shape());
  const int64_t n = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const int64_t oh = os.dim(2), ow = os.dim(3);
  const int64_t kernel = opt_.kernel, stride = opt_.stride, pad = opt_.pad;
  const simd::DwRowKernelFn dw_row = simd::dw_row_kernel();
  Tensor out(os);
  // One task per (image, channel) plane, one row-kernel call per output row.
  // Writes are disjoint and each pixel's accumulation chain is fixed by the
  // kernel contract, so the shard layout cannot change results.
  ctx.parallel_for(n * channels_, [&](int64_t p0, int64_t p1) {
    const float* rows[kMaxSimdKernel];
    for (int64_t pc = p0; pc < p1; ++pc) {
      const int64_t c = pc % channels_;
      const float* plane = input.data() + pc * ih * iw;
      const float* taps = weight_.data() + c * kernel * kernel;
      const float cscale = scale != nullptr ? scale[c] : 1.0f;
      const float cshift = shift != nullptr ? shift[c] : 0.0f;
      float* dst = out.data() + pc * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ky = 0; ky < kernel; ++ky) {
          const int64_t iy = oy * stride - pad + ky;
          rows[ky] = iy >= 0 && iy < ih ? plane + iy * iw : nullptr;
        }
        dw_row(rows, kernel, taps, kernel, iw, pad, stride, 0, ow, cscale,
               cshift, act, dst + oy * ow);
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d::forward_reference(ExecutionContext& ctx,
                                          const Tensor& input,
                                          const float* scale,
                                          const float* shift, simd::Act act) {
  simd::require_known_act(act);
  const Shape os = out_shape(input.shape());
  const int64_t n = input.dim(0), ih = input.dim(2), iw = input.dim(3);
  const int64_t oh = os.dim(2), ow = os.dim(3);
  Tensor out(os);
  // One task per (image, channel) plane; writes are disjoint, so the shard
  // layout cannot change results. Bit-stable across releases, and the
  // scalar row kernel TBNET_DETERMINISTIC=1 selects matches it bitwise.
  ctx.parallel_for(n * channels_, [&](int64_t p0, int64_t p1) {
    for (int64_t pc = p0; pc < p1; ++pc) {
      const int64_t c = pc % channels_;
      const float* plane = input.data() + pc * ih * iw;
      const float* k = weight_.data() + c * opt_.kernel * opt_.kernel;
      const float cscale = scale != nullptr ? scale[c] : 1.0f;
      const float cshift = shift != nullptr ? shift[c] : 0.0f;
      const bool affine = scale != nullptr || shift != nullptr;
      float* dst = out.data() + pc * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (int64_t ky = 0; ky < opt_.kernel; ++ky) {
            const int64_t iy = oy * opt_.stride - opt_.pad + ky;
            if (iy < 0 || iy >= ih) continue;
            for (int64_t kx = 0; kx < opt_.kernel; ++kx) {
              const int64_t ix = ox * opt_.stride - opt_.pad + kx;
              if (ix < 0 || ix >= iw) continue;
              acc += plane[iy * iw + ix] * k[ky * opt_.kernel + kx];
            }
          }
          if (affine) acc = acc * cscale + cshift;
          dst[oy * ow + ox] = simd::apply_act(acc, act);
        }
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d::backward(ExecutionContext& ctx,
                                 const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("DepthwiseConv2d::backward before forward(train)");
  }
  const Tensor& x = cached_input_;
  if (grad_output.shape() != out_shape(x.shape())) {
    throw std::invalid_argument("DepthwiseConv2d::backward: grad mismatch");
  }
  const int64_t n = x.dim(0), ih = x.dim(2), iw = x.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  Tensor grad_input(x.shape());
  // Sharded over channels only: dk[c] (and db[c]) accumulate across the
  // batch, so the image loop must stay serial per channel to keep the
  // accumulation order (and hence the bits) identical to the serial kernel.
  ctx.parallel_for(channels_, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      const float* k = weight_.data() + c * opt_.kernel * opt_.kernel;
      float* dk = weight_grad_.data() + c * opt_.kernel * opt_.kernel;
      // db[c] rides the same pass as dk/dx (accumulated before the g == 0
      // skip, in the identical image/pixel order).
      float db = 0.0f;
      for (int64_t i = 0; i < n; ++i) {
        const float* plane = x.data() + (i * channels_ + c) * ih * iw;
        const float* dy = grad_output.data() + (i * channels_ + c) * oh * ow;
        float* dx = grad_input.data() + (i * channels_ + c) * ih * iw;
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            const float g = dy[oy * ow + ox];
            db += g;
            if (g == 0.0f) continue;
            for (int64_t ky = 0; ky < opt_.kernel; ++ky) {
              const int64_t iy = oy * opt_.stride - opt_.pad + ky;
              if (iy < 0 || iy >= ih) continue;
              for (int64_t kx = 0; kx < opt_.kernel; ++kx) {
                const int64_t ix = ox * opt_.stride - opt_.pad + kx;
                if (ix < 0 || ix >= iw) continue;
                dk[ky * opt_.kernel + kx] += g * plane[iy * iw + ix];
                dx[iy * iw + ix] += g * k[ky * opt_.kernel + kx];
              }
            }
          }
        }
      }
      if (opt_.bias) bias_grad_[c] += db;
    }
  });
  return grad_input;
}

std::vector<ParamRef> DepthwiseConv2d::params() {
  std::vector<ParamRef> ps;
  ps.push_back({"weight", &weight_, &weight_grad_, /*decay=*/true});
  if (opt_.bias) ps.push_back({"bias", &bias_, &bias_grad_, /*decay=*/false});
  return ps;
}

void DepthwiseConv2d::fuse_scale_shift(const float* scale, const float* shift) {
  const int64_t kk = opt_.kernel * opt_.kernel;
  for (int64_t c = 0; c < channels_; ++c) {
    float* w = weight_.data() + c * kk;
    for (int64_t j = 0; j < kk; ++j) w[j] *= scale[c];
  }
  if (!opt_.bias) {
    opt_.bias = true;
    bias_ = Tensor(Shape{channels_});
    bias_grad_ = Tensor(Shape{channels_});
  }
  for (int64_t c = 0; c < channels_; ++c) {
    bias_[c] = bias_[c] * scale[c] + shift[c];
  }
}

std::unique_ptr<Layer> DepthwiseConv2d::clone() const {
  // Built from the layer's state: no forward cache, zero gradients.
  return std::make_unique<DepthwiseConv2d>(opt_, weight_, bias_);
}

void DepthwiseConv2d::select_channels(const std::vector<int64_t>& keep) {
  if (keep.empty()) {
    throw std::invalid_argument("DepthwiseConv2d: cannot prune all channels");
  }
  const int64_t kk = opt_.kernel * opt_.kernel;
  Tensor w(Shape{static_cast<int64_t>(keep.size()), opt_.kernel, opt_.kernel});
  for (size_t i = 0; i < keep.size(); ++i) {
    const int64_t c = keep[i];
    if (c < 0 || c >= channels_) {
      throw std::out_of_range("DepthwiseConv2d::select_channels: bad index");
    }
    for (int64_t j = 0; j < kk; ++j) {
      w[static_cast<int64_t>(i) * kk + j] = weight_[c * kk + j];
    }
  }
  if (opt_.bias) {
    Tensor nb(Shape{static_cast<int64_t>(keep.size())});
    for (size_t i = 0; i < keep.size(); ++i) {
      nb[static_cast<int64_t>(i)] = bias_[keep[i]];
    }
    bias_ = std::move(nb);
    bias_grad_ = Tensor(bias_.shape());
  }
  weight_ = std::move(w);
  weight_grad_ = Tensor(weight_.shape());
  channels_ = static_cast<int64_t>(keep.size());
  cached_input_ = Tensor();
}

}  // namespace tbnet::nn
