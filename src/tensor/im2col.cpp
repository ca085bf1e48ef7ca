#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

/// Output columns [lo, hi) of one output row whose input column
/// ox * stride_w + x0 lies inside [0, in_w). The range is the same for every
/// output row of a tap, so row-wise lowering checks bounds once per tap.
struct ColRange {
  int64_t lo, hi;
};

ColRange tap_columns(const Conv2dGeom& g, int64_t x0) {
  const int64_t s = g.stride_w, ow = g.out_w();
  const int64_t lo = x0 >= 0 ? 0 : (-x0 + s - 1) / s;
  const int64_t hi = g.in_w - 1 - x0 < 0 ? 0 : (g.in_w - 1 - x0) / s + 1;
  const int64_t clo = std::min(lo, ow);
  return ColRange{clo, std::clamp(hi, clo, ow)};
}

/// Fills one row of the column matrix: the (c, kh, kw) tap across all output
/// positions, one clamped copy per output row. Rows are independent, which
/// is what lets the context form shard them.
inline void im2col_row(const Conv2dGeom& g, const float* image, int64_t row,
                       float* out) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t kw = row % g.kernel_w;
  const int64_t kh = (row / g.kernel_w) % g.kernel_h;
  const int64_t c = row / (g.kernel_w * g.kernel_h);
  const float* plane = image + c * g.in_h * g.in_w;
  const int64_t x0 = kw - g.pad_w;
  const ColRange r = tap_columns(g, x0);
  for (int64_t oy = 0; oy < oh; ++oy) {
    float* o = out + oy * ow;
    const int64_t iy = oy * g.stride_h - g.pad_h + kh;
    if (iy < 0 || iy >= g.in_h) {
      std::memset(o, 0, static_cast<size_t>(ow) * sizeof(float));
      continue;
    }
    const float* src = plane + iy * g.in_w;
    std::fill(o, o + r.lo, 0.0f);
    if (g.stride_w == 1) {
      if (r.hi > r.lo) {
        std::copy(src + (r.lo + x0), src + (r.hi + x0), o + r.lo);
      }
    } else {
      for (int64_t ox = r.lo; ox < r.hi; ++ox) {
        o[ox] = src[ox * g.stride_w + x0];
      }
    }
    std::fill(o + r.hi, o + ow, 0.0f);
  }
}

/// One run of a panel's columns inside a single output row.
struct Seg {
  int64_t j;    ///< first panel column of the run
  int64_t len;  ///< run length
  int64_t iy0;  ///< oy * stride_h - pad_h (add kh for the tap's input row)
  int64_t ix0;  ///< ox0 * stride_w - pad_w (add kw; stride-1 run base)
};

/// Splits panel columns [j0, j0 + nr) into output-row runs. The split (and
/// each run's base input row/column before the kernel-tap offset) is shared
/// by every tap row of the panel. A panel is at most kNR columns, so kNR
/// bounds the run count.
int split_segments(const Conv2dGeom& g, int64_t j0, int nr, Seg* segs) {
  const int64_t ow = g.out_w();
  int nsegs = 0;
  for (int64_t j = 0, col = j0; j < nr; ++nsegs) {
    const int64_t oy = col / ow;
    const int64_t ox0 = col - oy * ow;
    segs[nsegs] = Seg{j, std::min<int64_t>(nr - j, ow - ox0),
                      oy * g.stride_h - g.pad_h, ox0 * g.stride_w - g.pad_w};
    j += segs[nsegs].len;
    col += segs[nsegs].len;
  }
  return nsegs;
}

/// The tap cursor at column-matrix row kk.
simd::PanelTap tap_at(const Conv2dGeom& g, const float* image, int64_t kk) {
  const int64_t khw = g.kernel_h * g.kernel_w;
  return simd::PanelTap{image + (kk / khw) * g.in_h * g.in_w,
                        (kk % khw) / g.kernel_w, (kk % khw) % g.kernel_w};
}

/// The masked-row kernel for g's panels, or nullptr when they take the
/// clamped copy: strided columns, a kernel wider than a plan holds, or a
/// tier without masked loads (scalar, NEON).
simd::MaskedRowsFn masked_rows_for(const Conv2dGeom& g) {
  if (g.stride_w != 1 || g.kernel_w > simd::MaskedPanelPlan::kMaxKernelW) {
    return nullptr;
  }
  return simd::masked_rows_kernel();
}

/// Plans a stride-1 panel for the masked-row kernel (see simd.h).
void plan_panel(const Conv2dGeom& g, const Seg* segs, int nsegs,
                simd::MaskedPanelPlan* pl) {
  pl->in_h = g.in_h;
  pl->in_w = g.in_w;
  pl->kernel_h = g.kernel_h;
  pl->kernel_w = g.kernel_w;
  pl->nseg = nsegs;
  for (int s = 0; s < nsegs; ++s) pl->iy0[s] = segs[s].iy0;
  for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
    for (int s = 0; s < nsegs; ++s) {
      const int64_t x = segs[s].ix0 + kw;
      const int64_t lo = std::clamp<int64_t>(-x, 0, segs[s].len);
      const int64_t hi = std::clamp<int64_t>(g.in_w - x, lo, segs[s].len);
      pl->mask[kw][s] = static_cast<uint16_t>(((1u << (hi - lo)) - 1u)
                                              << (segs[s].j + lo));
      pl->col[kw][s] = x + lo;
    }
  }
}

/// The clamped copy: per tap and run, bounds, zero-fill and a copy of the
/// in-bounds part. Serves strided columns, kernels wider than a plan, and
/// the tiers without masked loads. Emits `rows` panel rows from `cursor` on
/// and advances it (walked in a local: memcpy could alias a reference).
void copy_rows(const Conv2dGeom& g, const Seg* segs, int nsegs, int nr,
               simd::PanelTap& cursor, int64_t rows, float* out) {
  const int64_t plane_size = g.in_h * g.in_w;
  simd::PanelTap tap = cursor;
  for (int64_t p = 0; p < rows; ++p) {
    float* o = out + p * simd::kNR;
    for (int s = 0; s < nsegs; ++s) {
      const Seg& seg = segs[s];
      const int64_t iy = seg.iy0 + tap.kh;
      if (iy < 0 || iy >= g.in_h) {
        std::memset(o + seg.j, 0,
                    static_cast<size_t>(seg.len) * sizeof(float));
        continue;
      }
      const float* src = tap.plane + iy * g.in_w;
      const int64_t ix0 = seg.ix0 + tap.kw;
      if (g.stride_w == 1) {
        // In-bounds interior of the run is a straight copy.
        const int64_t lo = std::clamp<int64_t>(-ix0, 0, seg.len);
        const int64_t hi = std::clamp<int64_t>(g.in_w - ix0, lo, seg.len);
        for (int64_t t = 0; t < lo; ++t) o[seg.j + t] = 0.0f;
        if (hi > lo) {
          std::memcpy(o + seg.j + lo, src + (ix0 + lo),
                      static_cast<size_t>(hi - lo) * sizeof(float));
        }
        for (int64_t t = hi; t < seg.len; ++t) o[seg.j + t] = 0.0f;
      } else {
        for (int64_t t = 0; t < seg.len; ++t) {
          const int64_t ix = ix0 + t * g.stride_w;
          o[seg.j + t] = (ix >= 0 && ix < g.in_w) ? src[ix] : 0.0f;
        }
      }
    }
    for (int64_t j = nr; j < simd::kNR; ++j) o[j] = 0.0f;
    tap.advance(g.kernel_h, g.kernel_w, plane_size);
  }
  cursor = tap;
}

}  // namespace

void im2col(const Conv2dGeom& g, const float* image, float* cols) {
  const int64_t col_cols = g.col_cols();
  for (int64_t row = 0; row < g.col_rows(); ++row) {
    im2col_row(g, image, row, cols + row * col_cols);
  }
}

void im2col(const ExecutionContext& ctx, const Conv2dGeom& g,
            const float* image, float* cols) {
  const int64_t col_cols = g.col_cols();
  ctx.parallel_for(g.col_rows(), [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      im2col_row(g, image, row, cols + row * col_cols);
    }
  });
}

void im2col_pack_panel(const Conv2dGeom& g, const float* image, int64_t kk,
                       int64_t kc, int64_t j0, int nr, float* panel) {
  Seg segs[simd::kNR];
  const int nsegs = split_segments(g, j0, nr, segs);
  simd::PanelTap tap = tap_at(g, image, kk);
  if (const simd::MaskedRowsFn rows = masked_rows_for(g)) {
    simd::MaskedPanelPlan plan;
    plan_panel(g, segs, nsegs, &plan);
    rows(plan, tap, kc, panel);
    return;
  }
  copy_rows(g, segs, nsegs, nr, tap, kc, panel);
}

void im2col_pack_panel_u8(const Conv2dGeom& g, const float* image, int64_t kk,
                          int64_t kc, int64_t j0, int nr, float inv_scale,
                          int32_t zero_point, uint8_t* panel) {
  // Plan the panel once, then build one k-group of f32 column rows at a time
  // into a 4x16 staging tile and quantize-interleave it into the grouped
  // byte layout — the f32 column matrix never exists beyond the tile.
  Seg segs[simd::kNR];
  const int nsegs = split_segments(g, j0, nr, segs);
  simd::PanelTap tap = tap_at(g, image, kk);
  const simd::MaskedRowsFn masked = masked_rows_for(g);
  simd::MaskedPanelPlan plan;
  if (masked != nullptr) plan_panel(g, segs, nsegs, &plan);
  alignas(simd::kAlign) float staged[simd::kKG][simd::kNR];
  const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
  const int64_t kg = (kc + simd::kKG - 1) / simd::kKG;
  for (int64_t gi = 0; gi < kg; ++gi) {
    const int64_t rows = std::min<int64_t>(simd::kKG, kc - gi * simd::kKG);
    if (masked != nullptr) {
      masked(plan, tap, rows, staged[0]);
    } else {
      copy_rows(g, segs, nsegs, nr, tap, rows, staged[0]);
    }
    uint8_t* grp = panel + gi * simd::kNR * simd::kKG;
    if (rows == simd::kKG && nr == simd::kNR) {
      qgroup(staged[0], staged[1], staged[2], staged[3], grp, inv_scale,
             zero_point);
      continue;
    }
    for (int64_t j = 0; j < simd::kNR; ++j) {
      for (int64_t t = 0; t < simd::kKG; ++t) {
        grp[j * simd::kKG + t] =
            t < rows && j < nr
                ? simd::quantize_u7(staged[t][j], inv_scale, zero_point)
                : uint8_t{0};
      }
    }
  }
}

void col2im(const Conv2dGeom& g, const float* cols, float* image) {
  // Row-wise adjoint of im2col_row: one bounds check per tap, then one add
  // over the in-bounds columns of each output row. Each image element
  // receives the same additions in the same (row, oy) order as a per-pixel
  // loop, so the gradient bits do not depend on this form.
  const int64_t oh = g.out_h(), ow = g.out_w();
  const int64_t col_cols = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = cols + row * col_cols;
        const int64_t x0 = kw - g.pad_w;
        const ColRange r = tap_columns(g, x0);
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * g.stride_h - g.pad_h + kh;
          if (iy < 0 || iy >= g.in_h) continue;
          float* dst = plane + iy * g.in_w;
          const float* s = src + oy * ow;
          if (g.stride_w == 1) {
            for (int64_t ox = r.lo; ox < r.hi; ++ox) dst[ox + x0] += s[ox];
          } else {
            for (int64_t ox = r.lo; ox < r.hi; ++ox) {
              dst[ox * g.stride_w + x0] += s[ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace tbnet
