#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/init.h"
#include "tensor/gemm.h"

namespace tbnet::nn {

Conv2d::Conv2d(int64_t in_c, int64_t out_c, const Options& opt, Rng& rng)
    : Conv2d(opt,
             kaiming_normal(Shape{out_c, in_c, opt.kernel, opt.kernel},
                            in_c * opt.kernel * opt.kernel, rng),
             opt.bias ? Tensor(Shape{out_c}) : Tensor()) {}

Conv2d::Conv2d(const Options& opt, Tensor weight, Tensor bias)
    : opt_(opt), weight_(std::move(weight)), bias_(std::move(bias)) {
  const Shape& ws = weight_.shape();
  if (ws.ndim() != 4 || ws.dim(0) <= 0 || ws.dim(1) <= 0 ||
      ws.dim(2) != opt.kernel || ws.dim(3) != opt.kernel) {
    throw std::invalid_argument("Conv2d: weight " + ws.str() +
                                " is not [out_c, in_c, kernel, kernel]");
  }
  out_c_ = ws.dim(0);
  in_c_ = ws.dim(1);
  if (opt.bias ? bias_.shape() != Shape{out_c_} : !bias_.empty()) {
    throw std::invalid_argument("Conv2d: bias must be [out_c] exactly when "
                                "opt.bias is set");
  }
  weight_grad_ = Tensor(ws);
  if (opt.bias) bias_grad_ = Tensor(Shape{out_c_});
}

Conv2dGeom Conv2d::geom_for(const Shape& in) const {
  if (in.ndim() != 4) {
    throw std::invalid_argument("Conv2d: expected NCHW input, got " + in.str());
  }
  if (in.dim(1) != in_c_) {
    throw std::invalid_argument("Conv2d: input has " + std::to_string(in.dim(1)) +
                                " channels, layer expects " +
                                std::to_string(in_c_));
  }
  Conv2dGeom g;
  g.in_c = in_c_;
  g.in_h = in.dim(2);
  g.in_w = in.dim(3);
  g.kernel_h = g.kernel_w = opt_.kernel;
  g.stride_h = g.stride_w = opt_.stride;
  g.pad_h = g.pad_w = opt_.pad;
  if (g.in_h + 2 * g.pad_h < g.kernel_h || g.in_w + 2 * g.pad_w < g.kernel_w) {
    throw std::invalid_argument("Conv2d: window larger than padded input " +
                                in.str());
  }
  return g;
}

Shape Conv2d::out_shape(const Shape& in) const {
  const Conv2dGeom g = geom_for(in);
  return Shape{in.dim(0), out_c_, g.out_h(), g.out_w()};
}

int64_t Conv2d::macs(const Shape& in) const {
  const Conv2dGeom g = geom_for(in);
  return in.dim(0) * out_c_ * g.col_cols() * g.col_rows();
}

namespace {

/// Widest output the direct path takes. Past it the packed GEMM fills its
/// 6-row tiles and spreads each panel build over out_c / 6 of them, and it
/// catches up: forward at batch 1 on one Sapphire Rapids thread, the direct
/// path ran 0.85-0.97x the GEMM's speed at 64 output channels (8x8 to
/// 32x32 planes), 1.05x at 48 and 1.06-1.31x at 24 and 32.
constexpr int64_t kDirectMaxOutC = 32;

}  // namespace

bool Conv2d::direct() const {
  // Within one k-slice the packed GEMM's element is a single FMA chain from
  // zero in (c, ky, kx) order, which is what the direct kernel computes.
  return opt_.kernel == 3 && opt_.stride == 1 && opt_.pad == 1 &&
         in_c_ * 9 <= packdetail::kBlockK && out_c_ <= kDirectMaxOutC &&
         simd::direct_conv3x3() != nullptr;
}

Tensor Conv2d::forward(ExecutionContext& ctx, const Tensor& input,
                       bool train) {
  GemmEpilogue ep;
  if (opt_.bias) ep.row_shift = bias_.data();
  return forward_impl(ctx, input, train, ep);
}

Tensor Conv2d::forward_fused(ExecutionContext& ctx, const Tensor& input,
                             const float* scale, const float* shift,
                             simd::Act act) {
  GemmEpilogue ep;
  ep.row_scale = scale;
  ep.row_shift = shift;
  ep.act = act;
  return forward_impl(ctx, input, /*train=*/false, ep);
}

Tensor Conv2d::forward_impl(ExecutionContext& ctx, const Tensor& input,
                            bool train, const GemmEpilogue& ep) {
  if (!train && !quant_.empty()) return forward_int8(ctx, input, ep);
  if (direct()) {
    Tensor out = forward_direct(ctx, input, ep);
    if (train) cached_input_ = input;
    return out;
  }
  const Conv2dGeom g = geom_for(input.shape());
  const int64_t n = input.dim(0);
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  Tensor out(out_shape(input.shape()));
  const int64_t in_stride = in_c_ * g.in_h * g.in_w;
  const int64_t out_stride = out_c_ * cols;
  // A 1x1 stride-1 unpadded conv's column matrix IS the CHW image (row c of
  // the column matrix = channel plane c), so it is consumed in place with
  // zero lowering work.
  const bool direct_1x1 =
      opt_.kernel == 1 && opt_.stride == 1 && opt_.pad == 0;
  ArenaScope scope(ctx.arena());
  // The weight packs once per call (or never, when prepare_inference cached
  // it), and the column matrix never materializes — the driver pulls
  // [kc x nr] B panels straight from the image (im2col_pack_panel), so the
  // conv's arena footprint is the A pack plus per-chunk panel slabs.
  // Bias/BN/activation ride the GEMM epilogue — one pass over the output.
  // The per-image loop keeps batched output bit-identical to per-image calls.
  const float* apack = nullptr;
  if (!train && !packed_.empty()) {
    apack = packed_.data();
  } else {
    float* ap = ctx.arena().alloc(packdetail::packed_a_floats(out_c_, rows));
    packdetail::pack_a_rowmajor(ctx.pool(), out_c_, rows, weight_.data(), rows,
                                ap, ctx.intra_op_width());
    apack = ap;
  }
  for (int64_t i = 0; i < n; ++i) {
    const float* img = input.data() + i * in_stride;
    float* dst = out.data() + i * out_stride;
    if (direct_1x1) {
      packdetail::run_packed_b_rowmajor(ctx.pool(), out_c_, cols, rows, 1.0f,
                                        apack, img, cols, 0.0f, dst, cols, ep,
                                        ctx.intra_op_width());
    } else {
      packdetail::run_packed_b_producer(
          ctx, out_c_, cols, rows, 1.0f, apack,
          [&g, img](int64_t kk, int64_t kc, int64_t j0, int nr, float* panel) {
            im2col_pack_panel(g, img, kk, kc, j0, nr, panel);
          },
          0.0f, dst, cols, ep);
    }
  }
  if (train) cached_input_ = input;
  return out;
}

namespace {

/// Runs a direct forward on ctx's pool: y = ep(conv(x)) over `a`'s shapes.
void run_direct(const ExecutionContext& ctx, const simd::Conv3x3Args& a) {
  const simd::DirectConv3x3& k = *simd::direct_conv3x3();
  ctx.parallel_for(k.forward_units(a),
                   [&](int64_t u0, int64_t u1) { k.forward(a, u0, u1); });
}

}  // namespace

Tensor Conv2d::forward_direct(ExecutionContext& ctx, const Tensor& input,
                              const GemmEpilogue& ep) {
  Tensor out(out_shape(input.shape()));  // validates
  simd::Conv3x3Args a;
  a.x = input.data();
  a.y = out.data();
  a.w = weight_.data();  // [out_c, in_c, 3, 3] as is
  a.w_out = in_c_ * 9;
  a.w_in = 9;
  a.w_tap = 1;
  a.n = input.dim(0);
  a.in_c = in_c_;
  a.out_c = out_c_;
  a.height = input.dim(2);
  a.width = input.dim(3);
  a.row_scale = ep.row_scale;
  a.row_shift = ep.row_shift;
  a.act = ep.act;
  run_direct(ctx, a);
  return out;
}

Tensor Conv2d::forward_int8(ExecutionContext& ctx, const Tensor& input,
                            const GemmEpilogue& ep) {
  if (ep.col_shift != nullptr) {
    throw std::logic_error(
        "Conv2d: the int8 path composes per-row epilogues only");
  }
  const Conv2dGeom g = geom_for(input.shape());
  const int64_t n = input.dim(0);
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  Tensor out(out_shape(input.shape()));
  const int64_t in_stride = in_c_ * g.in_h * g.in_w;
  const int64_t out_stride = out_c_ * cols;
  const bool direct_1x1 =
      opt_.kernel == 1 && opt_.stride == 1 && opt_.pad == 0;
  ArenaScope scope(ctx.arena());
  // Compose the dequantization affine once per call, O(out_c): the kernel
  // applies y = act(acc * S[o] + T[o]) per element, where T folds the
  // zero-point correction and the caller's bias / BN shift (nn/quant.h).
  float* S = ctx.arena().alloc(out_c_);
  float* T = ctx.arena().alloc(out_c_);
  compose_quant_epilogue(quant_, ep.row_scale, ep.row_shift, out_c_, S, T);
  const simd::QuantEpilogue qep{S, T, ep.act};
  const int8_t* apack;
  if (!qpacked_.empty()) {
    apack = qpacked_.data();
  } else {
    const int64_t bytes = packdetail::packed_a_i8_bytes(out_c_, rows);
    int8_t* ap = reinterpret_cast<int8_t*>(ctx.arena().alloc((bytes + 3) / 4));
    packdetail::pack_a_i8(out_c_, rows, quant_.q.data(), rows, ap);
    apack = ap;
  }
  const float inv = 1.0f / quant_.act.scale;
  const int32_t zp = quant_.act.zero_point;
  for (int64_t i = 0; i < n; ++i) {
    const float* img = input.data() + i * in_stride;
    float* dst = out.data() + i * out_stride;
    if (direct_1x1) {
      // B row p of a 1x1 stride-1 unpadded conv IS channel plane p, so the
      // producer quantizes straight from the image rows into the grouped
      // panel layout — no lowering at all.
      packdetail::run_packed_i8_producer(
          ctx, out_c_, cols, rows, apack,
          [img, cols, inv, zp](int64_t kk, int64_t kc, int64_t j0, int nr,
                               uint8_t* panel) {
            const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
            const int64_t kg = (kc + simd::kKG - 1) / simd::kKG;
            for (int64_t gi = 0; gi < kg; ++gi) {
              uint8_t* grp = panel + gi * simd::kNR * simd::kKG;
              const float* row = img + (kk + gi * simd::kKG) * cols + j0;
              if (gi * simd::kKG + simd::kKG <= kc && nr == simd::kNR) {
                qgroup(row, row + cols, row + 2 * cols, row + 3 * cols, grp,
                       inv, zp);
                continue;
              }
              for (int64_t j = 0; j < simd::kNR; ++j) {
                for (int64_t t = 0; t < simd::kKG; ++t) {
                  const int64_t p = gi * simd::kKG + t;
                  grp[j * simd::kKG + t] =
                      p < kc && j < nr
                          ? simd::quantize_u7(img[(kk + p) * cols + j0 + j],
                                              inv, zp)
                          : uint8_t{0};
                }
              }
            }
          },
          dst, cols, qep);
    } else {
      packdetail::run_packed_i8_producer(
          ctx, out_c_, cols, rows, apack,
          [&g, img, inv, zp](int64_t kk, int64_t kc, int64_t j0, int nr,
                             uint8_t* panel) {
            im2col_pack_panel_u8(g, img, kk, kc, j0, nr, inv, zp, panel);
          },
          dst, cols, qep);
    }
  }
  return out;
}

Tensor Conv2d::backward(ExecutionContext& ctx, const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward called before forward(train)");
  }
  const Tensor& x = cached_input_;
  const Conv2dGeom g = geom_for(x.shape());
  const int64_t n = x.dim(0);
  const int64_t cols = g.col_cols();
  if (grad_output.shape() != out_shape(x.shape())) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }

  Tensor grad_input(x.shape());
  if (direct()) {
    backward_direct(ctx, grad_output, grad_input);
  } else {
    backward_gemm(ctx, grad_output, grad_input);
  }
  if (opt_.bias) {
    const int64_t out_stride = out_c_ * cols;
    for (int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + i * out_stride;
      for (int64_t c = 0; c < out_c_; ++c) {
        float acc = 0.0f;
        for (int64_t p = 0; p < cols; ++p) acc += dy[c * cols + p];
        bias_grad_[c] += acc;
      }
    }
  }
  return grad_input;
}

void Conv2d::backward_direct(ExecutionContext& ctx, const Tensor& grad_output,
                             Tensor& grad_input) {
  const Tensor& x = cached_input_;
  // dX is the forward kernel run on dy with the weight transposed and
  // flipped: tap (ky, kx) of (ci, o) is weight[o, ci, 2 - ky, 2 - kx].
  simd::Conv3x3Args d;
  d.x = grad_output.data();
  d.y = grad_input.data();
  d.w = weight_.data() + 8;
  d.w_out = 9;
  d.w_in = in_c_ * 9;
  d.w_tap = -1;
  d.n = x.dim(0);
  d.in_c = out_c_;
  d.out_c = in_c_;
  d.height = x.dim(2);
  d.width = x.dim(3);
  run_direct(ctx, d);
  // dW straight from the image and dy; each unit adds into weight_grad_
  // once.
  simd::Conv3x3GradArgs g;
  g.x = x.data();
  g.dy = grad_output.data();
  g.dw = weight_grad_.data();
  g.n = d.n;
  g.in_c = in_c_;
  g.out_c = out_c_;
  g.height = d.height;
  g.width = d.width;
  const simd::DirectConv3x3& k = *simd::direct_conv3x3();
  ctx.parallel_for(k.weight_grad_units(g), [&](int64_t u0, int64_t u1) {
    k.weight_grad(g, u0, u1);
  });
}

void Conv2d::backward_gemm(ExecutionContext& ctx, const Tensor& grad_output,
                           Tensor& grad_input) {
  const Tensor& x = cached_input_;
  const Conv2dGeom g = geom_for(x.shape());
  const int64_t n = x.dim(0);
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  ArenaScope scope(ctx.arena());
  // One column buffer per image serves both GEMMs: dW reads the image's
  // columns, then dX's column gradient overwrites them.
  float* colbuf = ctx.arena().alloc(rows * cols);
  // dW^T [rows, out_c], summed over the batch before it meets weight_grad_.
  float* dwt = ctx.arena().alloc(rows * out_c_);
  std::fill(dwt, dwt + rows * out_c_, 0.0f);
  const int64_t in_stride = in_c_ * g.in_h * g.in_w;
  const int64_t out_stride = out_c_ * cols;

  for (int64_t i = 0; i < n; ++i) {
    const float* dy = grad_output.data() + i * out_stride;
    // dW^T += cols * dy^T     [rows, out_c]
    // The column matrix is the A operand, which is packed row by row (or,
    // below kNR output channels, read in place by per-element dots); only
    // dy, out_c x cols, goes into transposed B panels. dW = dy * cols^T
    // would transpose the whole column matrix instead.
    im2col(ctx, g, x.data() + i * in_stride, colbuf);
    gemm_nt(ctx, rows, out_c_, cols, 1.0f, colbuf, dy, 1.0f, dwt);
    // dcols = W^T * dy        [rows, cols]
    gemm_tn(ctx, rows, cols, out_c_, 1.0f, weight_.data(), dy, 0.0f, colbuf);
    col2im(g, colbuf, grad_input.data() + i * in_stride);
  }
  for (int64_t o = 0; o < out_c_; ++o) {
    float* wg = weight_grad_.data() + o * rows;
    for (int64_t r = 0; r < rows; ++r) wg[r] += dwt[r * out_c_ + o];
  }
}

std::vector<ParamRef> Conv2d::params() {
  std::vector<ParamRef> ps;
  ps.push_back({"weight", &weight_, &weight_grad_, /*decay=*/true});
  if (opt_.bias) ps.push_back({"bias", &bias_, &bias_grad_, /*decay=*/false});
  return ps;
}

std::unique_ptr<Layer> Conv2d::clone() const {
  // Built from the layer's state: copying the layer would also copy the
  // last training batch (cached_input_). Quantized weights are model state
  // and survive; packs are prepare-time caches and gradients start at zero.
  auto copy = std::make_unique<Conv2d>(opt_, weight_, bias_);
  copy->quant_ = quant_;
  return copy;
}

namespace {

/// Gathers slices of `src` along dimension `dim` (rank-4 weight tensor).
Tensor gather_dim(const Tensor& src, int dim, const std::vector<int64_t>& keep) {
  const Shape& s = src.shape();
  std::vector<int64_t> dims = s.dims();
  dims[static_cast<size_t>(dim)] = static_cast<int64_t>(keep.size());
  Tensor out{Shape(dims)};
  // Treat the tensor as [outer, extent, inner].
  int64_t outer = 1, inner = 1;
  for (int i = 0; i < dim; ++i) outer *= s.dim(i);
  for (int i = dim + 1; i < s.ndim(); ++i) inner *= s.dim(i);
  const int64_t extent = s.dim(dim);
  for (int64_t o = 0; o < outer; ++o) {
    for (size_t ki = 0; ki < keep.size(); ++ki) {
      const int64_t k = keep[ki];
      if (k < 0 || k >= extent) {
        throw std::out_of_range("Conv2d channel selection index out of range");
      }
      const float* src_p = src.data() + (o * extent + k) * inner;
      float* dst_p = out.data() + (o * static_cast<int64_t>(keep.size()) +
                                   static_cast<int64_t>(ki)) *
                                      inner;
      for (int64_t j = 0; j < inner; ++j) dst_p[j] = src_p[j];
    }
  }
  return out;
}

}  // namespace

void Conv2d::fuse_scale_shift(const float* scale, const float* shift) {
  const int64_t per_out = in_c_ * opt_.kernel * opt_.kernel;
  for (int64_t o = 0; o < out_c_; ++o) {
    float* w = weight_.data() + o * per_out;
    for (int64_t j = 0; j < per_out; ++j) w[j] *= scale[o];
  }
  if (!opt_.bias) {
    opt_.bias = true;
    bias_ = Tensor(Shape{out_c_});
    bias_grad_ = Tensor(Shape{out_c_});
  }
  for (int64_t o = 0; o < out_c_; ++o) {
    bias_[o] = bias_[o] * scale[o] + shift[o];
  }
  packed_.clear();
  quant_ = QuantizedWeights();
  qpacked_.clear();
}

void Conv2d::set_quantized(QuantizedWeights qw) {
  const int64_t k = in_c_ * opt_.kernel * opt_.kernel;
  if (!qw.empty() &&
      (qw.q.size() != static_cast<size_t>(out_c_ * k) ||
       qw.scale.size() != static_cast<size_t>(out_c_) ||
       qw.qsum.size() != static_cast<size_t>(out_c_) ||
       qw.act.scale <= 0.0f)) {
    throw std::invalid_argument("Conv2d::set_quantized: shape mismatch");
  }
  quant_ = std::move(qw);
  packed_.clear();
  qpacked_.clear();
}

void Conv2d::prepare_inference(ExecutionContext& ctx) {
  if (quant_.empty() && direct()) return;
  if (!quant_.empty()) {
    // A quantized conv serves through the int8 path, so the f32 pack would
    // be dead weight.
    const int64_t k = in_c_ * opt_.kernel * opt_.kernel;
    qpacked_.resize(
        static_cast<size_t>(packdetail::packed_a_i8_bytes(out_c_, k)));
    packdetail::pack_a_i8(out_c_, k, quant_.q.data(), k, qpacked_.data());
    return;
  }
  packed_.pack_a(out_c_, in_c_ * opt_.kernel * opt_.kernel, weight_.data(),
                 &ctx.arena());
}

void Conv2d::select_out_channels(const std::vector<int64_t>& keep) {
  if (keep.empty()) throw std::invalid_argument("Conv2d: cannot prune all output channels");
  packed_.clear();
  quant_ = QuantizedWeights();
  qpacked_.clear();
  weight_ = gather_dim(weight_, 0, keep);
  weight_grad_ = Tensor(weight_.shape());
  if (opt_.bias) {
    Tensor nb(Shape{static_cast<int64_t>(keep.size())});
    for (size_t i = 0; i < keep.size(); ++i) nb[static_cast<int64_t>(i)] = bias_[keep[i]];
    bias_ = std::move(nb);
    bias_grad_ = Tensor(bias_.shape());
  }
  out_c_ = static_cast<int64_t>(keep.size());
  cached_input_ = Tensor();
}

void Conv2d::select_in_channels(const std::vector<int64_t>& keep) {
  if (keep.empty()) throw std::invalid_argument("Conv2d: cannot prune all input channels");
  packed_.clear();
  quant_ = QuantizedWeights();
  qpacked_.clear();
  weight_ = gather_dim(weight_, 1, keep);
  weight_grad_ = Tensor(weight_.shape());
  in_c_ = static_cast<int64_t>(keep.size());
  cached_input_ = Tensor();
}

}  // namespace tbnet::nn
