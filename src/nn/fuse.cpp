#include "nn/fuse.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/quant.h"
#include "tensor/pack.h"

namespace tbnet::nn {

namespace {

/// The column range [j0, j0+nr) of a depthwise output map, decomposed into
/// runs within single output rows — shared by every channel of a panel, so
/// the producers build it once per produce() call (same idiom as
/// im2col_pack_panel).
struct DwSegs {
  struct Seg {
    int64_t j;    ///< first panel column of the run
    int64_t len;  ///< run length
    int64_t ox0;  ///< first output column of the run
    /// Per tap row: offset of the input row within the channel plane, or -1
    /// when vertically out of bounds.
    int64_t row_off[DepthwiseConv2d::kMaxSimdKernel];
  };
  Seg segs[simd::kNR];
  int nsegs = 0;
};

void build_dw_segs(int64_t j0, int nr, int64_t ow, int64_t kernel,
                   int64_t stride, int64_t pad, int64_t ih, int64_t iw,
                   DwSegs* out) {
  (void)iw;
  out->nsegs = 0;
  for (int64_t j = 0, col = j0; j < nr; ++out->nsegs) {
    DwSegs::Seg& s = out->segs[out->nsegs];
    const int64_t oy = col / ow;
    s.j = j;
    s.ox0 = col - oy * ow;
    s.len = std::min<int64_t>(nr - j, ow - s.ox0);
    for (int64_t ky = 0; ky < kernel; ++ky) {
      const int64_t iy = oy * stride - pad + ky;
      s.row_off[ky] = iy >= 0 && iy < ih ? iy * iw : -1;
    }
    j += s.len;
    col += s.len;
  }
}

/// Computes one depthwise output row (channel c of the fused step's B
/// operand) over the segment decomposition into prow[0, nr); columns
/// [nr, kNR) are zero-filled. Pure function of its arguments; the row
/// kernel's segment-invariance contract makes the values independent of the
/// panel partitioning.
inline void dw_lower_row(const DwSegs& sg, simd::DwRowKernelFn dw_row,
                         const float* plane, const float* taps, int64_t kernel,
                         int64_t iw, int64_t pad, int64_t stride, float cscale,
                         float cshift, simd::Act act, int nr, float* prow) {
  const float* rows[DepthwiseConv2d::kMaxSimdKernel];
  for (int s = 0; s < sg.nsegs; ++s) {
    const DwSegs::Seg& seg = sg.segs[s];
    for (int64_t ky = 0; ky < kernel; ++ky) {
      rows[ky] = seg.row_off[ky] >= 0 ? plane + seg.row_off[ky] : nullptr;
    }
    dw_row(rows, kernel, taps, kernel, iw, pad, stride, seg.ox0, seg.len,
           cscale, cshift, act, prow + seg.j);
  }
  for (int64_t j = nr; j < simd::kNR; ++j) prow[j] = 0.0f;
}

}  // namespace

int fold_batchnorm_inference(Sequential& seq) {
  int folds = 0;
  for (int i = 0; i < seq.size(); ++i) {
    if (auto* inner = dynamic_cast<Sequential*>(&seq.layer(i))) {
      folds += fold_batchnorm_inference(*inner);
      continue;
    }
    if (i + 1 >= seq.size()) continue;
    auto* conv = dynamic_cast<Conv2d*>(&seq.layer(i));
    auto* dw = dynamic_cast<DepthwiseConv2d*>(&seq.layer(i));
    const int64_t channels = conv != nullptr ? conv->out_channels()
                             : dw != nullptr ? dw->channels()
                                             : -1;
    if (channels < 0) continue;
    auto* bn = dynamic_cast<BatchNorm2d*>(&seq.layer(i + 1));
    if (bn == nullptr || bn->channels() != channels) continue;
    std::vector<float> scale(static_cast<size_t>(channels));
    std::vector<float> shift(static_cast<size_t>(channels));
    bn->inference_scale_shift(scale.data(), shift.data());
    if (conv != nullptr) {
      conv->fuse_scale_shift(scale.data(), shift.data());
    } else {
      dw->fuse_scale_shift(scale.data(), shift.data());
    }
    seq.remove_layer(i + 1);
    ++folds;
  }
  return folds;
}

bool fuse_dw_pw_profitable(int64_t channels, int64_t cols) {
  // Thresholds sit exactly on the measured loss shape: k = 32 over a 32x32
  // map. k = 64 stacks and 16x16 maps both measured ~1.0x or better.
  constexpr int64_t kShallowK = 32;
  constexpr int64_t kWideCols = 32 * 32;
  return channels > kShallowK || cols < kWideCols;
}

Tensor forward_depthwise_pointwise(ExecutionContext& ctx, const Tensor& x,
                                   const DepthwiseConv2d& dw,
                                   const float* dw_scale,
                                   const float* dw_shift, simd::Act dw_act,
                                   const Conv2d& pw,
                                   const GemmEpilogue& pw_ep) {
  simd::require_known_act(dw_act);
  simd::require_known_act(pw_ep.act);
  const auto& dopt = dw.options();
  const auto& popt = pw.options();
  if (popt.kernel != 1 || popt.stride != 1 || popt.pad != 0 ||
      pw.in_channels() != dw.channels() ||
      dopt.kernel > DepthwiseConv2d::kMaxSimdKernel) {
    throw std::invalid_argument(
        "forward_depthwise_pointwise: layers do not match the fusion "
        "contract (pointwise must be 1x1 stride-1 pad-0 over the depthwise "
        "channels)");
  }
  const Shape dw_os = dw.out_shape(x.shape());
  const int64_t n = x.dim(0), ih = x.dim(2), iw = x.dim(3);
  const int64_t oh = dw_os.dim(2), ow = dw_os.dim(3);
  const int64_t channels = dw.channels();
  const int64_t out_c = pw.out_channels();
  const int64_t cols = oh * ow;
  const int64_t kernel = dopt.kernel, stride = dopt.stride, pad = dopt.pad;
  const float* taps_base = dw.weight().data();
  const simd::DwRowKernelFn dw_row = simd::dw_row_kernel();

  ArenaScope scope(ctx.arena());
  Tensor out(Shape{n, out_c, oh, ow});
  const int64_t in_stride = channels * ih * iw;
  const int64_t out_stride = out_c * cols;

  if (pw.quantized()) {
    // Quantized pointwise: the depthwise rows are computed in f32 exactly as
    // below, then quantized into the grouped u8 panel layout on the spot —
    // the same bytes Conv2d::forward_int8 would see from a materialized
    // depthwise output, so the gate between the fused and back-to-back
    // forms stays a pure latency knob on the quantized path too.
    if (pw_ep.col_shift != nullptr) {
      throw std::logic_error(
          "forward_depthwise_pointwise: int8 epilogues are per-row only");
    }
    const QuantizedWeights& qw = pw.quant();
    float* S = ctx.arena().alloc(out_c);
    float* T = ctx.arena().alloc(out_c);
    compose_quant_epilogue(qw, pw_ep.row_scale, pw_ep.row_shift, out_c, S, T);
    const simd::QuantEpilogue qep{S, T, pw_ep.act};
    const int8_t* qapack = pw.packed_quant();
    if (qapack == nullptr) {
      const int64_t bytes = packdetail::packed_a_i8_bytes(out_c, channels);
      int8_t* ap =
          reinterpret_cast<int8_t*>(ctx.arena().alloc((bytes + 3) / 4));
      packdetail::pack_a_i8(out_c, channels, qw.q.data(), channels, ap);
      qapack = ap;
    }
    const float inv = 1.0f / qw.act.scale;
    const int32_t zp = qw.act.zero_point;
    const int64_t panel_bytes = packdetail::panel_b_i8_bytes(channels);
    for (int64_t i = 0; i < n; ++i) {
      const float* img = x.data() + i * in_stride;
      packdetail::run_packed_i8_producer(
          ctx, out_c, cols, channels, qapack,
          [&](int64_t kk, int64_t kc, int64_t j0, int nr, uint8_t* panel) {
            DwSegs sg;
            build_dw_segs(j0, nr, ow, kernel, stride, pad, ih, iw, &sg);
            std::memset(panel, 0, static_cast<size_t>(panel_bytes));
            // Stage one k-group of depthwise output rows, then quantize the
            // whole 64-byte group at once (per-element at the k/nr tails).
            const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
            alignas(simd::kAlign) float staged[simd::kKG][simd::kNR];
            for (int64_t p0 = 0; p0 < kc; p0 += simd::kKG) {
              const int64_t rows = std::min<int64_t>(simd::kKG, kc - p0);
              for (int64_t t = 0; t < rows; ++t) {
                const int64_t c = kk + p0 + t;
                dw_lower_row(sg, dw_row, img + c * ih * iw,
                             taps_base + c * kernel * kernel, kernel, iw, pad,
                             stride, dw_scale != nullptr ? dw_scale[c] : 1.0f,
                             dw_shift != nullptr ? dw_shift[c] : 0.0f, dw_act,
                             nr, staged[t]);
              }
              uint8_t* grp =
                  panel + (p0 / simd::kKG) * simd::kNR * simd::kKG;
              if (rows == simd::kKG && nr == simd::kNR) {
                qgroup(staged[0], staged[1], staged[2], staged[3], grp, inv,
                       zp);
                continue;
              }
              for (int64_t t = 0; t < rows; ++t) {
                for (int j = 0; j < nr; ++j) {
                  grp[j * simd::kKG + t] =
                      simd::quantize_u7(staged[t][j], inv, zp);
                }
              }
            }
          },
          out.data() + i * out_stride, cols, qep);
    }
    return out;
  }

  const float* apack;
  if (!pw.packed_weight().empty()) {
    apack = pw.packed_weight().data();
  } else {
    float* ap = ctx.arena().alloc(packdetail::packed_a_floats(out_c, channels));
    packdetail::pack_a_rowmajor(ctx.pool(), out_c, channels, pw.weight().data(),
                                channels, ap, ctx.intra_op_width());
    apack = ap;
  }
  // The per-image loop keeps batched output bit-identical to per-image calls
  // (same reason as Conv2d::forward_impl).
  for (int64_t i = 0; i < n; ++i) {
    const float* img = x.data() + i * in_stride;
    packdetail::run_packed_b_producer(
        ctx, out_c, cols, channels, 1.0f, apack,
        [&](int64_t kk, int64_t kc, int64_t j0, int nr, float* panel) {
          // B rows are depthwise output channels, B columns spatial
          // positions of the depthwise output map; produce the [kc x 16]
          // slab by running the depthwise row kernel over the column range's
          // output-row segments. The decomposition (and each tap row's
          // plane-relative offset) is shared by every channel of the panel,
          // so it is hoisted out of the channel loop — the same idiom as
          // im2col_pack_panel. Pure function of disjoint panel coordinates:
          // thread-safe, no arena, as the producer contract requires.
          DwSegs sg;
          build_dw_segs(j0, nr, ow, kernel, stride, pad, ih, iw, &sg);
          for (int64_t p = 0; p < kc; ++p) {
            const int64_t c = kk + p;
            dw_lower_row(sg, dw_row, img + c * ih * iw,
                         taps_base + c * kernel * kernel, kernel, iw, pad,
                         stride, dw_scale != nullptr ? dw_scale[c] : 1.0f,
                         dw_shift != nullptr ? dw_shift[c] : 0.0f, dw_act, nr,
                         panel + p * simd::kNR);
          }
        },
        0.0f, out.data() + i * out_stride, cols, pw_ep);
  }
  return out;
}

}  // namespace tbnet::nn
