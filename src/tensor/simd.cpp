#include "tensor/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define TBNET_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define TBNET_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace tbnet::simd {
namespace {

// ---------------------------------------------------------------- scalar --

/// Four float lanes for the portable tier. GCC and Clang lower the type to
/// SSE or NEON registers, or to plain scalar code on targets with neither;
/// lane arithmetic is scalar arithmetic, so the bits do not depend on which.
typedef float F4 __attribute__((vector_size(16)));

inline F4 load_f4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Portable fallback, and the tier TBNET_DETERMINISTIC=1 pins. Plain
/// multiply-add (no forced FMA: on hosts without hardware FMA std::fmaf is a
/// libm call per element), so each element's chain is the scalar reference
/// GEMMs' (gemm.h). The tile runs as strips of R rows by kNR columns, each a
/// full pass over kc: the 12 vector accumulators of R = 3 stay in the 16
/// SSE/NEON registers (B rows are re-read from L1), where one 6x16 block
/// spills on every k step. Strips wholly past mr are skipped, so the mr1
/// form is R = 1. The split changes no element's chain, and all tiles go
/// through the same code, so the path is batch-invariant.
template <int R>
void micro_scalar(int64_t kc, const float* a_panel, const float* b_panel,
                  int64_t bstride, float* c, int64_t ldc, int mr, int nr,
                  float alpha, float beta, const TileEpilogue* ep) {
  constexpr int kV = kNR / 4;
  for (int i0 = 0; i0 < mr; i0 += R) {
    F4 acc[R][kV] = {};
    for (int64_t p = 0; p < kc; ++p) {
      const float* ap = a_panel + p * kMR + i0;
      const float* bp = b_panel + p * bstride;
      F4 b[kV];
      for (int v = 0; v < kV; ++v) b[v] = load_f4(bp + 4 * v);
      for (int i = 0; i < R; ++i) {
        const F4 a = {ap[i], ap[i], ap[i], ap[i]};
        for (int v = 0; v < kV; ++v) acc[i][v] += a * b[v];
      }
    }
    const int rows = std::min(R, mr - i0);
    for (int i = 0; i < rows; ++i) {
      float v[kNR];
      std::memcpy(v, acc[i], sizeof v);
      float* crow = c + (i0 + i) * ldc;
      for (int j = 0; j < kNR; ++j) v[j] *= alpha;
      if (beta != 0.0f) {
        for (int j = 0; j < nr; ++j) v[j] += beta * crow[j];
      }
      if (ep != nullptr) {
        const float rs =
            ep->row_scale != nullptr ? ep->row_scale[i0 + i] : 1.0f;
        const float rh =
            ep->row_shift != nullptr ? ep->row_shift[i0 + i] : 0.0f;
        for (int j = 0; j < kNR; ++j) v[j] = v[j] * rs + rh;
        if (ep->col_shift != nullptr) {
          for (int j = 0; j < nr; ++j) v[j] += ep->col_shift[j];
        }
        for (int j = 0; j < kNR; ++j) v[j] = apply_act(v[j], ep->act);
      }
      std::memcpy(crow, v, static_cast<size_t>(nr) * sizeof(float));
    }
  }
}

float dot_scalar(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// --------------------------------------------------- masked panel rows --

/// Plane offset of segment s's input row at tap row kh, or -1 where that
/// row is padding. Recomputed only when the walk changes kh.
inline int64_t seg_row_offset(const MaskedPanelPlan& pl, int s, int64_t kh) {
  const int64_t iy = pl.iy0[s] + kh;
  return iy >= 0 && iy < pl.in_h ? iy * pl.in_w : -1;
}

/// Segment s's lanes at tap `t` (row offset `off`): empty when the input row
/// is padding. Sets *src to the first in-bounds element they load from, or
/// to the plane itself when there is none, so no pointer leaves the image
/// and the row kernels need no branch per segment.
inline unsigned seg_lanes(const MaskedPanelPlan& pl, const PanelTap& t, int s,
                          int64_t off, const float** src) {
  const unsigned m = off < 0 ? 0u : pl.mask[t.kw][s];
  *src = m != 0 ? t.plane + off + pl.col[t.kw][s] : t.plane;
  return m;
}

// ------------------------------------------------------------------ AVX2 --

#if TBNET_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
#define TBNET_SIMD_HAVE_AVX2 1

/// 6x16 FMA microkernel: 12 ymm accumulators + 2 B vectors + 1 A broadcast.
/// Compiled for avx2+fma via target attribute; only dispatched after a
/// runtime __builtin_cpu_supports check.
__attribute__((target("avx2,fma"))) void micro_avx2(
    int64_t kc, const float* a_panel, const float* b_panel, int64_t bstride,
    float* c, int64_t ldc, int mr, int nr, float alpha, float beta,
    const TileEpilogue* ep) {
  // Named accumulators: an acc[6][2] array here makes GCC keep the array
  // live on the stack and store every accumulator once per k iteration
  // (12 extra stores per tap — enough to halve throughput). With scalars the
  // hot loop is exactly 12 FMAs + 2 loads + 6 broadcasts.
  __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
  __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
  __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
  __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
  __m256 a40 = _mm256_setzero_ps(), a41 = _mm256_setzero_ps();
  __m256 a50 = _mm256_setzero_ps(), a51 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    // B rows may be strided (in-place row-major B); prefetch a few rows
    // ahead so the L2 latency of large-ldb strides hides under the FMAs.
    _mm_prefetch(reinterpret_cast<const char*>(b_panel + (p + 8) * bstride),
                 _MM_HINT_T0);
    const __m256 b0 = _mm256_loadu_ps(b_panel + p * bstride);
    const __m256 b1 = _mm256_loadu_ps(b_panel + p * bstride + 8);
    const float* ap = a_panel + p * kMR;
    __m256 a;
    a = _mm256_broadcast_ss(ap + 0);
    a00 = _mm256_fmadd_ps(a, b0, a00);
    a01 = _mm256_fmadd_ps(a, b1, a01);
    a = _mm256_broadcast_ss(ap + 1);
    a10 = _mm256_fmadd_ps(a, b0, a10);
    a11 = _mm256_fmadd_ps(a, b1, a11);
    a = _mm256_broadcast_ss(ap + 2);
    a20 = _mm256_fmadd_ps(a, b0, a20);
    a21 = _mm256_fmadd_ps(a, b1, a21);
    a = _mm256_broadcast_ss(ap + 3);
    a30 = _mm256_fmadd_ps(a, b0, a30);
    a31 = _mm256_fmadd_ps(a, b1, a31);
    a = _mm256_broadcast_ss(ap + 4);
    a40 = _mm256_fmadd_ps(a, b0, a40);
    a41 = _mm256_fmadd_ps(a, b1, a41);
    a = _mm256_broadcast_ss(ap + 5);
    a50 = _mm256_fmadd_ps(a, b0, a50);
    a51 = _mm256_fmadd_ps(a, b1, a51);
  }
  const __m256 acc[kMR][2] = {{a00, a01}, {a10, a11}, {a20, a21},
                              {a30, a31}, {a40, a41}, {a50, a51}};

  const __m256 valpha = _mm256_set1_ps(alpha);
  if (mr == kMR && nr == kNR) {
    // Full tile: vector alpha/beta update + epilogue straight from registers.
    for (int i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      __m256 v0 = _mm256_mul_ps(valpha, acc[i][0]);
      __m256 v1 = _mm256_mul_ps(valpha, acc[i][1]);
      if (beta != 0.0f) {
        const __m256 vbeta = _mm256_set1_ps(beta);
        v0 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(crow), v0);
        v1 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(crow + 8), v1);
      }
      if (ep != nullptr) {
        if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
          const __m256 rs = _mm256_set1_ps(
              ep->row_scale != nullptr ? ep->row_scale[i] : 1.0f);
          const __m256 rh = _mm256_set1_ps(
              ep->row_shift != nullptr ? ep->row_shift[i] : 0.0f);
          v0 = _mm256_fmadd_ps(rs, v0, rh);
          v1 = _mm256_fmadd_ps(rs, v1, rh);
        }
        if (ep->col_shift != nullptr) {
          v0 = _mm256_add_ps(v0, _mm256_loadu_ps(ep->col_shift));
          v1 = _mm256_add_ps(v1, _mm256_loadu_ps(ep->col_shift + 8));
        }
        if (ep->act != Act::kNone) {
          const __m256 zero = _mm256_setzero_ps();
          v0 = _mm256_max_ps(v0, zero);
          v1 = _mm256_max_ps(v1, zero);
        }
      }
      _mm256_storeu_ps(crow, v0);
      _mm256_storeu_ps(crow + 8, v1);
    }
    return;
  }

  // Edge tile: spill the (zero-padded) accumulators and finalize the valid
  // sub-tile scalar-side. std::fmaf compiles to a scalar vfmadd here (the
  // function is FMA-targeted), so the rounding matches the vector path and an
  // element's bits do not depend on which tile shape covered it.
  alignas(32) float tmp[kMR][kNR];
  for (int i = 0; i < kMR; ++i) {
    _mm256_store_ps(tmp[i], acc[i][0]);
    _mm256_store_ps(tmp[i] + 8, acc[i][1]);
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float rs = ep != nullptr && ep->row_scale != nullptr
                         ? ep->row_scale[i] : 1.0f;
    const float rh = ep != nullptr && ep->row_shift != nullptr
                         ? ep->row_shift[i] : 0.0f;
    for (int j = 0; j < nr; ++j) {
      float v = alpha * tmp[i][j];
      if (beta != 0.0f) v = std::fmaf(beta, crow[j], v);
      if (ep != nullptr) {
        if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
          v = std::fmaf(rs, v, rh);
        }
        if (ep->col_shift != nullptr) v += ep->col_shift[j];
        v = apply_act(v, ep->act);
      }
      crow[j] = v;
    }
  }
}

/// mr == 1 tile: two accumulators, no padded-row work. The per-lane FMA
/// chain over p is identical to the general kernel's row 0, so results are
/// bit-identical — only faster.
__attribute__((target("avx2,fma"))) void micro_avx2_mr1(
    int64_t kc, const float* a_panel, const float* b_panel, int64_t bstride,
    float* c, int64_t ldc, int mr, int nr, float alpha, float beta,
    const TileEpilogue* ep) {
  (void)ldc;
  (void)mr;
  __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    const __m256 a = _mm256_broadcast_ss(a_panel + p * kMR);
    a0 = _mm256_fmadd_ps(a, _mm256_loadu_ps(b_panel + p * bstride), a0);
    a1 = _mm256_fmadd_ps(a, _mm256_loadu_ps(b_panel + p * bstride + 8), a1);
  }
  if (nr == kNR) {
    __m256 v0 = _mm256_mul_ps(_mm256_set1_ps(alpha), a0);
    __m256 v1 = _mm256_mul_ps(_mm256_set1_ps(alpha), a1);
    if (beta != 0.0f) {
      const __m256 vbeta = _mm256_set1_ps(beta);
      v0 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(c), v0);
      v1 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(c + 8), v1);
    }
    if (ep != nullptr) {
      if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
        const __m256 rs = _mm256_set1_ps(
            ep->row_scale != nullptr ? ep->row_scale[0] : 1.0f);
        const __m256 rh = _mm256_set1_ps(
            ep->row_shift != nullptr ? ep->row_shift[0] : 0.0f);
        v0 = _mm256_fmadd_ps(rs, v0, rh);
        v1 = _mm256_fmadd_ps(rs, v1, rh);
      }
      if (ep->col_shift != nullptr) {
        v0 = _mm256_add_ps(v0, _mm256_loadu_ps(ep->col_shift));
        v1 = _mm256_add_ps(v1, _mm256_loadu_ps(ep->col_shift + 8));
      }
      if (ep->act != Act::kNone) {
        const __m256 zero = _mm256_setzero_ps();
        v0 = _mm256_max_ps(v0, zero);
        v1 = _mm256_max_ps(v1, zero);
      }
    }
    _mm256_storeu_ps(c, v0);
    _mm256_storeu_ps(c + 8, v1);
    return;
  }
  alignas(32) float tmp[kNR];
  _mm256_store_ps(tmp, a0);
  _mm256_store_ps(tmp + 8, a1);
  const float rs = ep != nullptr && ep->row_scale != nullptr
                       ? ep->row_scale[0] : 1.0f;
  const float rh = ep != nullptr && ep->row_shift != nullptr
                       ? ep->row_shift[0] : 0.0f;
  for (int j = 0; j < nr; ++j) {
    float v = alpha * tmp[j];
    if (beta != 0.0f) v = std::fmaf(beta, c[j], v);
    if (ep != nullptr) {
      if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
        v = std::fmaf(rs, v, rh);
      }
      if (ep->col_shift != nullptr) v += ep->col_shift[j];
      v = apply_act(v, ep->act);
    }
    c[j] = v;
  }
}

__attribute__((target("avx2,fma"))) float dot_avx2(const float* a,
                                                   const float* b, int64_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 16),
                           _mm256_loadu_ps(b + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 24),
                           _mm256_loadu_ps(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc0);
  float total = ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5])) +
                ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]));
  for (; i < n; ++i) total = std::fmaf(a[i], b[i], total);
  return total;
}

/// 8-lane expand-load: the popcount(m) floats at src land in the lanes of
/// the contiguous lane mask m (which may be empty), every other lane is
/// +0.0f. The maskload reads exactly those floats into lanes [0, count);
/// the permute then shifts them up to the mask's first lane. Lanes below it
/// wrap around to lanes [8 - first, 8), which are zero because
/// first + count <= 8.
__attribute__((target("avx2,fma,popcnt"))) inline __m256 expand_load8(
    const float* src, unsigned m) {
  static constexpr int32_t kFirstN[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                          0,  0,  0,  0,  0,  0,  0,  0};
  const int first = __builtin_ctz(m | 0x100u);  // 8 (a no-op shift) if empty
  const int count = __builtin_popcount(m);
  const __m256 x = _mm256_maskload_ps(
      src, _mm256_loadu_si256(
               reinterpret_cast<const __m256i*>(kFirstN + 8 - count)));
  const __m256i idx = _mm256_sub_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(first));
  return _mm256_permutevar8x32_ps(x, idx);
}

/// AVX2 masked-row walk (see simd.h): each segment loads its lanes with
/// two expand_load8s; segments cover disjoint lanes and are zero elsewhere,
/// so OR merges them. kOne instantiates the one-segment walk for a panel
/// inside one output row (every panel of a 16- or 32-wide map), which
/// compiles to a branch-free loop; on a Sapphire Rapids Xeon it builds such
/// panels 18-32% faster than the general walk, on either tier.
/// The cursor lives in locals: the vector stores may alias anything, so a
/// cursor kept in `tap` would round-trip through memory on every row.
template <bool kOne>
__attribute__((target("avx2,fma,popcnt"))) void masked_rows_avx2_walk(
    const MaskedPanelPlan& pl, PanelTap& tap, int64_t rows, float* out) {
  const int nseg = kOne ? 1 : pl.nseg;
  const int64_t kernel_h = pl.kernel_h, kernel_w = pl.kernel_w;
  const int64_t plane_size = pl.in_h * pl.in_w;
  PanelTap t = tap;
  int64_t off[kNR];
  for (int s = 0; s < nseg; ++s) off[s] = seg_row_offset(pl, s, t.kh);
  for (int64_t p = 0; p < rows; ++p) {
    __m256 lo = _mm256_setzero_ps(), hi = _mm256_setzero_ps();
    for (int s = 0; s < nseg; ++s) {
      const float* src;
      const unsigned m = seg_lanes(pl, t, s, off[s], &src);
      const unsigned m0 = m & 0xFFu, m1 = m >> 8u;
      // Multi-segment panels skip a segment's empty half (an 8-wide
      // segment fills only one).
      if (kOne || m0 != 0) lo = _mm256_or_ps(lo, expand_load8(src, m0));
      if (kOne || m1 != 0) {
        hi = _mm256_or_ps(hi, expand_load8(src + __builtin_popcount(m0), m1));
      }
    }
    _mm256_storeu_ps(out + p * kNR, lo);
    _mm256_storeu_ps(out + p * kNR + 8, hi);
    if (t.advance(kernel_h, kernel_w, plane_size)) {
      for (int s = 0; s < nseg; ++s) off[s] = seg_row_offset(pl, s, t.kh);
    }
  }
  tap = t;
}

__attribute__((target("avx2,fma,popcnt"))) void masked_rows_avx2(
    const MaskedPanelPlan& pl, PanelTap& tap, int64_t rows, float* out) {
  if (pl.nseg == 1) {
    masked_rows_avx2_walk<true>(pl, tap, rows, out);
  } else {
    masked_rows_avx2_walk<false>(pl, tap, rows, out);
  }
}
#define TBNET_SIMD_HAVE_AVX512 1

/// AVX-512 masked-row walk (see simd.h): one expand-load per segment,
/// starting at its first in-bounds element, merged into one zmm. Walked
/// like masked_rows_avx2_walk.
template <bool kOne>
__attribute__((target("avx512f"))) void masked_rows_avx512_walk(
    const MaskedPanelPlan& pl, PanelTap& tap, int64_t rows, float* out) {
  const int nseg = kOne ? 1 : pl.nseg;
  const int64_t kernel_h = pl.kernel_h, kernel_w = pl.kernel_w;
  const int64_t plane_size = pl.in_h * pl.in_w;
  PanelTap t = tap;
  int64_t off[kNR];
  for (int s = 0; s < nseg; ++s) off[s] = seg_row_offset(pl, s, t.kh);
  for (int64_t p = 0; p < rows; ++p) {
    __m512 v = _mm512_setzero_ps();
    for (int s = 0; s < nseg; ++s) {
      const float* src;
      const unsigned m = seg_lanes(pl, t, s, off[s], &src);
      v = _mm512_mask_expandloadu_ps(v, static_cast<__mmask16>(m), src);
    }
    _mm512_storeu_ps(out + p * kNR, v);
    if (t.advance(kernel_h, kernel_w, plane_size)) {
      for (int s = 0; s < nseg; ++s) off[s] = seg_row_offset(pl, s, t.kh);
    }
  }
  tap = t;
}

__attribute__((target("avx512f"))) void masked_rows_avx512(
    const MaskedPanelPlan& pl, PanelTap& tap, int64_t rows, float* out) {
  if (pl.nseg == 1) {
    masked_rows_avx512_walk<true>(pl, tap, rows, out);
  } else {
    masked_rows_avx512_walk<false>(pl, tap, rows, out);
  }
}

/// 6x32 f32 tile for AVX-512F: 12 zmm accumulators (6 rows x 2 sixteen-wide
/// halves) + 2 B vectors + 1 A broadcast — 15 of 32 zmm registers, no
/// spills, and twice the FMA width per k iteration of the 6x16 kernel. Each
/// C element still accumulates through a single FMA chain in k order, so the
/// bits match micro_avx2 exactly (see MicroKernelWideFn).
__attribute__((target("avx512f"))) void micro_avx512_wide(
    int64_t kc, const float* a_panel, const float* b0, int64_t bstride0,
    const float* b1, int64_t bstride1, float* c, int64_t ldc, int mr,
    float alpha, float beta, const TileEpilogue* ep) {
  __m512 a00 = _mm512_setzero_ps(), a01 = _mm512_setzero_ps();
  __m512 a10 = _mm512_setzero_ps(), a11 = _mm512_setzero_ps();
  __m512 a20 = _mm512_setzero_ps(), a21 = _mm512_setzero_ps();
  __m512 a30 = _mm512_setzero_ps(), a31 = _mm512_setzero_ps();
  __m512 a40 = _mm512_setzero_ps(), a41 = _mm512_setzero_ps();
  __m512 a50 = _mm512_setzero_ps(), a51 = _mm512_setzero_ps();
  for (int64_t p = 0; p < kc; ++p) {
    _mm_prefetch(reinterpret_cast<const char*>(b0 + (p + 8) * bstride0),
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(b1 + (p + 8) * bstride1),
                 _MM_HINT_T0);
    const __m512 vb0 = _mm512_loadu_ps(b0 + p * bstride0);
    const __m512 vb1 = _mm512_loadu_ps(b1 + p * bstride1);
    const float* ap = a_panel + p * kMR;
    __m512 a;
    a = _mm512_set1_ps(ap[0]);
    a00 = _mm512_fmadd_ps(a, vb0, a00);
    a01 = _mm512_fmadd_ps(a, vb1, a01);
    a = _mm512_set1_ps(ap[1]);
    a10 = _mm512_fmadd_ps(a, vb0, a10);
    a11 = _mm512_fmadd_ps(a, vb1, a11);
    a = _mm512_set1_ps(ap[2]);
    a20 = _mm512_fmadd_ps(a, vb0, a20);
    a21 = _mm512_fmadd_ps(a, vb1, a21);
    a = _mm512_set1_ps(ap[3]);
    a30 = _mm512_fmadd_ps(a, vb0, a30);
    a31 = _mm512_fmadd_ps(a, vb1, a31);
    a = _mm512_set1_ps(ap[4]);
    a40 = _mm512_fmadd_ps(a, vb0, a40);
    a41 = _mm512_fmadd_ps(a, vb1, a41);
    a = _mm512_set1_ps(ap[5]);
    a50 = _mm512_fmadd_ps(a, vb0, a50);
    a51 = _mm512_fmadd_ps(a, vb1, a51);
  }
  const __m512 acc[kMR][2] = {{a00, a01}, {a10, a11}, {a20, a21},
                              {a30, a31}, {a40, a41}, {a50, a51}};

  if (mr == kMR) {
    const __m512 valpha = _mm512_set1_ps(alpha);
    for (int i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      __m512 v0 = _mm512_mul_ps(valpha, acc[i][0]);
      __m512 v1 = _mm512_mul_ps(valpha, acc[i][1]);
      if (beta != 0.0f) {
        const __m512 vbeta = _mm512_set1_ps(beta);
        v0 = _mm512_fmadd_ps(vbeta, _mm512_loadu_ps(crow), v0);
        v1 = _mm512_fmadd_ps(vbeta, _mm512_loadu_ps(crow + kNR), v1);
      }
      if (ep != nullptr) {
        if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
          const __m512 rs = _mm512_set1_ps(
              ep->row_scale != nullptr ? ep->row_scale[i] : 1.0f);
          const __m512 rh = _mm512_set1_ps(
              ep->row_shift != nullptr ? ep->row_shift[i] : 0.0f);
          v0 = _mm512_fmadd_ps(rs, v0, rh);
          v1 = _mm512_fmadd_ps(rs, v1, rh);
        }
        if (ep->col_shift != nullptr) {
          v0 = _mm512_add_ps(v0, _mm512_loadu_ps(ep->col_shift));
          v1 = _mm512_add_ps(v1, _mm512_loadu_ps(ep->col_shift + kNR));
        }
        if (ep->act != Act::kNone) {
          const __m512 zero = _mm512_setzero_ps();
          v0 = _mm512_maskz_max_ps(0xFFFF, v0, zero);
          v1 = _mm512_maskz_max_ps(0xFFFF, v1, zero);
        }
      }
      _mm512_storeu_ps(crow, v0);
      _mm512_storeu_ps(crow + kNR, v1);
    }
    return;
  }

  // Edge rows: spill and finalize scalar-side with std::fmaf, same as the
  // 6x16 kernels' edge path (both columns' halves are always full width).
  alignas(64) float tmp[kMR][2 * kNR];
  for (int i = 0; i < kMR; ++i) {
    _mm512_store_ps(tmp[i], acc[i][0]);
    _mm512_store_ps(tmp[i] + kNR, acc[i][1]);
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float rs = ep != nullptr && ep->row_scale != nullptr
                         ? ep->row_scale[i] : 1.0f;
    const float rh = ep != nullptr && ep->row_shift != nullptr
                         ? ep->row_shift[i] : 0.0f;
    for (int j = 0; j < 2 * kNR; ++j) {
      float v = alpha * tmp[i][j];
      if (beta != 0.0f) v = std::fmaf(beta, crow[j], v);
      if (ep != nullptr) {
        if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
          v = std::fmaf(rs, v, rh);
        }
        if (ep->col_shift != nullptr) v += ep->col_shift[j];
        v = apply_act(v, ep->act);
      }
      crow[j] = v;
    }
  }
}
#endif  // TBNET_SIMD_HAVE_AVX2

// ------------------------------------------------------------------ int8 --
//
// See simd.h for the panel formats and the u7 exactness argument: every tier
// computes the exact integer dot product, and every tier finalizes with
// round-to-nearest int->float conversion plus one fused multiply-add, so the
// C bytes are identical across scalar / maddubs / VNNI.

/// Scalar int8 reference: exact i32 accumulation over k-groups, then the
/// shared (float)acc -> fmaf -> act finalize. This is the kernel
/// TBNET_DETERMINISTIC=1 selects and the bit-parity oracle for the SIMD tiers.
void micro_i8_scalar(int64_t kg, const int8_t* a_panel, const uint8_t* b_panel,
                     float* c, int64_t ldc, int mr, int nr,
                     const QuantEpilogue& ep) {
  int32_t acc[kMR][kNR] = {};
  for (int64_t g = 0; g < kg; ++g) {
    const int8_t* ag = a_panel + g * kMR * kKG;
    const uint8_t* bg = b_panel + g * kNR * kKG;
    for (int i = 0; i < kMR; ++i) {
      const int8_t* aq = ag + i * kKG;
      for (int j = 0; j < kNR; ++j) {
        const uint8_t* bq = bg + j * kKG;
        acc[i][j] += static_cast<int32_t>(aq[0]) * bq[0] +
                     static_cast<int32_t>(aq[1]) * bq[1] +
                     static_cast<int32_t>(aq[2]) * bq[2] +
                     static_cast<int32_t>(aq[3]) * bq[3];
      }
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float s = ep.scale[i];
    const float h = ep.shift[i];
    for (int j = 0; j < nr; ++j) {
      crow[j] = apply_act(std::fmaf(static_cast<float>(acc[i][j]), s, h),
                          ep.act);
    }
  }
}

#if defined(TBNET_SIMD_HAVE_AVX2)

/// Shared finalize for the AVX2-width int8 tiers: the accumulator tile is in
/// memory (one store per kernel call), the dequantize epilogue is applied
/// with cvtepi32_ps + fmadd, which round exactly like the reference's
/// (float) cast + std::fmaf. Kept out of line so each VNNI tier compiles
/// with only its own target attribute.
__attribute__((target("avx2,fma"))) void i8_finish_avx2(
    const int32_t raw[kMR][kNR], float* c, int64_t ldc, int mr, int nr,
    const QuantEpilogue& ep) {
  if (mr == kMR && nr == kNR) {
    for (int i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      const __m256 s = _mm256_set1_ps(ep.scale[i]);
      const __m256 h = _mm256_set1_ps(ep.shift[i]);
      __m256 v0 = _mm256_fmadd_ps(
          _mm256_cvtepi32_ps(
              _mm256_load_si256(reinterpret_cast<const __m256i*>(raw[i]))),
          s, h);
      __m256 v1 = _mm256_fmadd_ps(
          _mm256_cvtepi32_ps(
              _mm256_load_si256(reinterpret_cast<const __m256i*>(raw[i] + 8))),
          s, h);
      if (ep.act != Act::kNone) {
        const __m256 zero = _mm256_setzero_ps();
        v0 = _mm256_max_ps(v0, zero);
        v1 = _mm256_max_ps(v1, zero);
      }
      _mm256_storeu_ps(crow, v0);
      _mm256_storeu_ps(crow + 8, v1);
    }
    return;
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float s = ep.scale[i];
    const float h = ep.shift[i];
    for (int j = 0; j < nr; ++j) {
      crow[j] = apply_act(std::fmaf(static_cast<float>(raw[i][j]), s, h),
                          ep.act);
    }
  }
}

/// AVX2 tier: pmaddubsw (u8 x s8 -> pairwise i16) + pmaddwd(1) widen to i32.
/// The u7 activation range keeps the i16 pair sums below 2^15, so this is
/// exact. One B half-vector is processed at a time: 12 accumulators + B +
/// broadcast + ones + the maddubs temporary is exactly the 16-register ymm
/// file.
__attribute__((target("avx2,fma"))) void micro_i8_avx2(
    int64_t kg, const int8_t* a_panel, const uint8_t* b_panel, float* c,
    int64_t ldc, int mr, int nr, const QuantEpilogue& ep) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i a00 = _mm256_setzero_si256(), a01 = _mm256_setzero_si256();
  __m256i a10 = _mm256_setzero_si256(), a11 = _mm256_setzero_si256();
  __m256i a20 = _mm256_setzero_si256(), a21 = _mm256_setzero_si256();
  __m256i a30 = _mm256_setzero_si256(), a31 = _mm256_setzero_si256();
  __m256i a40 = _mm256_setzero_si256(), a41 = _mm256_setzero_si256();
  __m256i a50 = _mm256_setzero_si256(), a51 = _mm256_setzero_si256();
  for (int64_t g = 0; g < kg; ++g) {
    const int8_t* ag = a_panel + g * kMR * kKG;
    int32_t q[kMR];
    std::memcpy(q, ag, sizeof(q));
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG));
    a00 = _mm256_add_epi32(
        a00, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[0])), ones));
    a10 = _mm256_add_epi32(
        a10, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[1])), ones));
    a20 = _mm256_add_epi32(
        a20, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[2])), ones));
    a30 = _mm256_add_epi32(
        a30, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[3])), ones));
    a40 = _mm256_add_epi32(
        a40, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[4])), ones));
    a50 = _mm256_add_epi32(
        a50, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b0, _mm256_set1_epi32(q[5])), ones));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG + 32));
    a01 = _mm256_add_epi32(
        a01, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[0])), ones));
    a11 = _mm256_add_epi32(
        a11, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[1])), ones));
    a21 = _mm256_add_epi32(
        a21, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[2])), ones));
    a31 = _mm256_add_epi32(
        a31, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[3])), ones));
    a41 = _mm256_add_epi32(
        a41, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[4])), ones));
    a51 = _mm256_add_epi32(
        a51, _mm256_madd_epi16(
                 _mm256_maddubs_epi16(b1, _mm256_set1_epi32(q[5])), ones));
  }
  alignas(32) int32_t raw[kMR][kNR];
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0]), a00);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0] + 8), a01);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1]), a10);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1] + 8), a11);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2]), a20);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2] + 8), a21);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3]), a30);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3] + 8), a31);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4]), a40);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4] + 8), a41);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5]), a50);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5] + 8), a51);
  i8_finish_avx2(raw, c, ldc, mr, nr, ep);
}

#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 11)
#define TBNET_SIMD_HAVE_VNNI 1

/// AVX-VNNI tier (256-bit dpbusd on cores without AVX-512): one instruction
/// replaces the maddubs/madd/add triple. Same exact integer result.
__attribute__((target("avxvnni,avx2,fma"))) void micro_i8_avxvnni(
    int64_t kg, const int8_t* a_panel, const uint8_t* b_panel, float* c,
    int64_t ldc, int mr, int nr, const QuantEpilogue& ep) {
  __m256i a00 = _mm256_setzero_si256(), a01 = _mm256_setzero_si256();
  __m256i a10 = _mm256_setzero_si256(), a11 = _mm256_setzero_si256();
  __m256i a20 = _mm256_setzero_si256(), a21 = _mm256_setzero_si256();
  __m256i a30 = _mm256_setzero_si256(), a31 = _mm256_setzero_si256();
  __m256i a40 = _mm256_setzero_si256(), a41 = _mm256_setzero_si256();
  __m256i a50 = _mm256_setzero_si256(), a51 = _mm256_setzero_si256();
  for (int64_t g = 0; g < kg; ++g) {
    const int8_t* ag = a_panel + g * kMR * kKG;
    int32_t q[kMR];
    std::memcpy(q, ag, sizeof(q));
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG + 32));
    __m256i va;
    va = _mm256_set1_epi32(q[0]);
    a00 = _mm256_dpbusd_avx_epi32(a00, b0, va);
    a01 = _mm256_dpbusd_avx_epi32(a01, b1, va);
    va = _mm256_set1_epi32(q[1]);
    a10 = _mm256_dpbusd_avx_epi32(a10, b0, va);
    a11 = _mm256_dpbusd_avx_epi32(a11, b1, va);
    va = _mm256_set1_epi32(q[2]);
    a20 = _mm256_dpbusd_avx_epi32(a20, b0, va);
    a21 = _mm256_dpbusd_avx_epi32(a21, b1, va);
    va = _mm256_set1_epi32(q[3]);
    a30 = _mm256_dpbusd_avx_epi32(a30, b0, va);
    a31 = _mm256_dpbusd_avx_epi32(a31, b1, va);
    va = _mm256_set1_epi32(q[4]);
    a40 = _mm256_dpbusd_avx_epi32(a40, b0, va);
    a41 = _mm256_dpbusd_avx_epi32(a41, b1, va);
    va = _mm256_set1_epi32(q[5]);
    a50 = _mm256_dpbusd_avx_epi32(a50, b0, va);
    a51 = _mm256_dpbusd_avx_epi32(a51, b1, va);
  }
  alignas(32) int32_t raw[kMR][kNR];
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0]), a00);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0] + 8), a01);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1]), a10);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1] + 8), a11);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2]), a20);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2] + 8), a21);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3]), a30);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3] + 8), a31);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4]), a40);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4] + 8), a41);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5]), a50);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5] + 8), a51);
  i8_finish_avx2(raw, c, ldc, mr, nr, ep);
}

/// AVX512-VNNI tier, used at 256-bit width (AVX512VL) so the tile shape and
/// register layout stay identical to the other tiers. Same exact result.
__attribute__((target("avx512vnni,avx512vl,avx2,fma"))) void
micro_i8_avx512vnni(int64_t kg, const int8_t* a_panel, const uint8_t* b_panel,
                    float* c, int64_t ldc, int mr, int nr,
                    const QuantEpilogue& ep) {
  __m256i a00 = _mm256_setzero_si256(), a01 = _mm256_setzero_si256();
  __m256i a10 = _mm256_setzero_si256(), a11 = _mm256_setzero_si256();
  __m256i a20 = _mm256_setzero_si256(), a21 = _mm256_setzero_si256();
  __m256i a30 = _mm256_setzero_si256(), a31 = _mm256_setzero_si256();
  __m256i a40 = _mm256_setzero_si256(), a41 = _mm256_setzero_si256();
  __m256i a50 = _mm256_setzero_si256(), a51 = _mm256_setzero_si256();
  for (int64_t g = 0; g < kg; ++g) {
    const int8_t* ag = a_panel + g * kMR * kKG;
    int32_t q[kMR];
    std::memcpy(q, ag, sizeof(q));
    const __m256i b0 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG));
    const __m256i b1 = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + g * kNR * kKG + 32));
    __m256i va;
    va = _mm256_set1_epi32(q[0]);
    a00 = _mm256_dpbusd_epi32(a00, b0, va);
    a01 = _mm256_dpbusd_epi32(a01, b1, va);
    va = _mm256_set1_epi32(q[1]);
    a10 = _mm256_dpbusd_epi32(a10, b0, va);
    a11 = _mm256_dpbusd_epi32(a11, b1, va);
    va = _mm256_set1_epi32(q[2]);
    a20 = _mm256_dpbusd_epi32(a20, b0, va);
    a21 = _mm256_dpbusd_epi32(a21, b1, va);
    va = _mm256_set1_epi32(q[3]);
    a30 = _mm256_dpbusd_epi32(a30, b0, va);
    a31 = _mm256_dpbusd_epi32(a31, b1, va);
    va = _mm256_set1_epi32(q[4]);
    a40 = _mm256_dpbusd_epi32(a40, b0, va);
    a41 = _mm256_dpbusd_epi32(a41, b1, va);
    va = _mm256_set1_epi32(q[5]);
    a50 = _mm256_dpbusd_epi32(a50, b0, va);
    a51 = _mm256_dpbusd_epi32(a51, b1, va);
  }
  alignas(32) int32_t raw[kMR][kNR];
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0]), a00);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[0] + 8), a01);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1]), a10);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[1] + 8), a11);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2]), a20);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[2] + 8), a21);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3]), a30);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[3] + 8), a31);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4]), a40);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[4] + 8), a41);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5]), a50);
  _mm256_store_si256(reinterpret_cast<__m256i*>(raw[5] + 8), a51);
  i8_finish_avx2(raw, c, ldc, mr, nr, ep);
}

#if defined(TBNET_SIMD_HAVE_AVX512)
/// AVX512-VNNI tier at full 512-bit width: one B k-group (kNR * kKG = 64
/// bytes) is exactly one zmm, so each group costs a single load plus six
/// broadcast+dpbusd pairs — half the instruction count of the 256-bit
/// tier for the same 384 MACs. The i32 accumulators hold the exact dot
/// product (u7 contract) and the finalize is the shared i8_finish_avx2,
/// so the C bytes match every other tier.
__attribute__((target("avx512vnni,avx512f,avx2,fma"))) void
micro_i8_avx512vnni_z(int64_t kg, const int8_t* a_panel,
                      const uint8_t* b_panel, float* c, int64_t ldc, int mr,
                      int nr, const QuantEpilogue& ep) {
  __m512i r0 = _mm512_setzero_si512(), r1 = _mm512_setzero_si512();
  __m512i r2 = _mm512_setzero_si512(), r3 = _mm512_setzero_si512();
  __m512i r4 = _mm512_setzero_si512(), r5 = _mm512_setzero_si512();
  for (int64_t g = 0; g < kg; ++g) {
    const int8_t* ag = a_panel + g * kMR * kKG;
    int32_t q[kMR];
    std::memcpy(q, ag, sizeof(q));
    const __m512i b = _mm512_loadu_si512(b_panel + g * kNR * kKG);
    r0 = _mm512_dpbusd_epi32(r0, b, _mm512_set1_epi32(q[0]));
    r1 = _mm512_dpbusd_epi32(r1, b, _mm512_set1_epi32(q[1]));
    r2 = _mm512_dpbusd_epi32(r2, b, _mm512_set1_epi32(q[2]));
    r3 = _mm512_dpbusd_epi32(r3, b, _mm512_set1_epi32(q[3]));
    r4 = _mm512_dpbusd_epi32(r4, b, _mm512_set1_epi32(q[4]));
    r5 = _mm512_dpbusd_epi32(r5, b, _mm512_set1_epi32(q[5]));
  }
  alignas(64) int32_t raw[kMR][kNR];
  _mm512_store_si512(raw[0], r0);
  _mm512_store_si512(raw[1], r1);
  _mm512_store_si512(raw[2], r2);
  _mm512_store_si512(raw[3], r3);
  _mm512_store_si512(raw[4], r4);
  _mm512_store_si512(raw[5], r5);
  i8_finish_avx2(raw, c, ldc, mr, nr, ep);
}
#endif  // TBNET_SIMD_HAVE_AVX512
#endif  // TBNET_SIMD_HAVE_VNNI
#endif  // TBNET_SIMD_HAVE_AVX2

// Grouped-layout activation quantizers: one call fills a full 64-byte B
// panel k-group, grp[j * kKG + t] = quantize_u7(row_t[j]). The SIMD forms
// convert with cvtps2dq (round-to-nearest-even, exactly lrintf under the
// default mode), add the zero point, clamp to [0, 127], and compose the
// byte interleave for free via lane-wise shifts and ORs — lane j's i32
// IS the little-endian 4-byte group entry. Bytes are identical to the
// scalar form for any input that quantizes in (-2^31, 2^31) pre-clamp,
// which calibrated activation scales guarantee by construction.

void quant_group_scalar(const float* r0, const float* r1, const float* r2,
                        const float* r3, uint8_t* grp, float inv_scale,
                        int32_t zero_point) {
  const float* rows[kKG] = {r0, r1, r2, r3};
  for (int j = 0; j < kNR; ++j) {
    for (int t = 0; t < kKG; ++t) {
      grp[j * kKG + t] = quantize_u7(rows[t][j], inv_scale, zero_point);
    }
  }
}

#if defined(TBNET_SIMD_HAVE_AVX2)
__attribute__((target("avx2,fma"))) void quant_group_avx2(
    const float* r0, const float* r1, const float* r2, const float* r3,
    uint8_t* grp, float inv_scale, int32_t zero_point) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256i vzp = _mm256_set1_epi32(zero_point);
  const __m256i lo = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(127);
  const float* rows[kKG] = {r0, r1, r2, r3};
  for (int half = 0; half < 2; ++half) {
    __m256i q[kKG];
    for (int t = 0; t < kKG; ++t) {
      const __m256i v = _mm256_cvtps_epi32(
          _mm256_mul_ps(_mm256_loadu_ps(rows[t] + 8 * half), vinv));
      q[t] = _mm256_min_epi32(
          _mm256_max_epi32(_mm256_add_epi32(v, vzp), lo), hi);
    }
    const __m256i packed = _mm256_or_si256(
        _mm256_or_si256(q[0], _mm256_slli_epi32(q[1], 8)),
        _mm256_or_si256(_mm256_slli_epi32(q[2], 16),
                        _mm256_slli_epi32(q[3], 24)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(grp + 32 * half), packed);
  }
}

#if defined(TBNET_SIMD_HAVE_AVX512)
__attribute__((target("avx512f,avx2,fma"))) void quant_group_avx512(
    const float* r0, const float* r1, const float* r2, const float* r3,
    uint8_t* grp, float inv_scale, int32_t zero_point) {
  const __m512 vinv = _mm512_set1_ps(inv_scale);
  const __m512i vzp = _mm512_set1_epi32(zero_point);
  const __m512i lo = _mm512_setzero_si512();
  const __m512i hi = _mm512_set1_epi32(127);
  const float* rows[kKG] = {r0, r1, r2, r3};
  __m512i q[kKG];
  for (int t = 0; t < kKG; ++t) {
    const __m512i v = _mm512_maskz_cvtps_epi32(
        0xFFFF, _mm512_mul_ps(_mm512_loadu_ps(rows[t]), vinv));
    q[t] = _mm512_maskz_min_epi32(
        0xFFFF, _mm512_maskz_max_epi32(0xFFFF, _mm512_add_epi32(v, vzp), lo),
        hi);
  }
  const __m512i packed = _mm512_or_si512(
      _mm512_or_si512(q[0], _mm512_maskz_slli_epi32(0xFFFF, q[1], 8)),
      _mm512_or_si512(_mm512_maskz_slli_epi32(0xFFFF, q[2], 16),
                      _mm512_maskz_slli_epi32(0xFFFF, q[3], 24)));
  _mm512_storeu_si512(grp, packed);
}
#endif  // TBNET_SIMD_HAVE_AVX512
#endif  // TBNET_SIMD_HAVE_AVX2

// ------------------------------------------------------ direct 3x3 conv --
//
// See simd.h for the tile, the masked taps and both contracts. Both tiers
// share the unit split and the tap plan; the kernels differ in width, in
// register budget and in how a lane mask reaches the load.

#if defined(TBNET_SIMD_HAVE_AVX2)

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// `out_c` channels in `nb` blocks of at most `ob_max`, as even as can be:
/// the first `nb_hi` hold `ob_hi` channels, the rest ob_hi - 1.
struct ChannelBlocks {
  int64_t nb = 0, nb_hi = 0, ob_hi = 0;

  ChannelBlocks(int64_t out_c, int ob_max)
      : nb(ceil_div(out_c, ob_max)),
        nb_hi(0),
        ob_hi(ceil_div(out_c, nb)) {
    nb_hi = out_c - nb * (ob_hi - 1);
  }
  int64_t o0(int64_t b) const {
    return b < nb_hi ? b * ob_hi : nb_hi * ob_hi + (b - nb_hi) * (ob_hi - 1);
  }
  int ob(int64_t b) const {
    return static_cast<int>(b < nb_hi ? ob_hi : ob_hi - 1);
  }
};

/// How a forward call splits into units: channel blocks by `ntb` tile
/// blocks of `tb` tiles (the last may hold fewer), where tb_max[ob_hi]
/// bounds a block's tiles. Unit u is tile block u / nb and channel block
/// u % nb, so a run of units shares its tile plan.
struct DirectSplit {
  ChannelBlocks ch;
  int64_t tiles = 0, ntb = 0, tb = 0;

  DirectSplit(int64_t out_c, int64_t tile_count, int ob_max,
              const int* tb_max)
      : ch(out_c, ob_max),
        tiles(tile_count),
        ntb(ceil_div(tiles, tb_max[ch.ob_hi])),
        tb(ceil_div(tiles, ntb)) {}
  int64_t units() const { return ch.nb * ntb; }
};

/// One tap of one tile: lanes `keep` take plane[off + lane - shift]. The
/// masked load reads lanes `load` = keep >> shift at plane + off; shift is
/// nonzero only where the tile's first lane would address before the plane,
/// and then `off` is the first in-bounds element.
struct TapLoad {
  int64_t off = 0;
  uint16_t load = 0, keep = 0;
  int32_t shift = 0;
};

/// The nine taps of one tile, its first pixel and its in-plane lanes.
struct TilePlan {
  TapLoad tap[9];
  int64_t j0 = 0;
  uint16_t in = 0;
  bool shifted = false;  ///< some tap has a nonzero shift
};

/// Fills a tile's taps from its lane classes: `in` inside the plane, `top`
/// / `bottom` on its first / last row, `left` / `right` on its first / last
/// column. A lane's tap (ky, kx) is padding exactly when it sits on the
/// border that tap looks past.
void plan_taps(TilePlan& p, int64_t j0, int64_t width, uint32_t in,
               uint32_t top, uint32_t bottom, uint32_t left, uint32_t right) {
  p.j0 = j0;
  p.in = static_cast<uint16_t>(in);
  p.shifted = false;
  for (int ky = 0; ky < 3; ++ky) {
    const uint32_t rows =
        in & ~(ky == 0 ? top : 0u) & ~(ky == 2 ? bottom : 0u);
    for (int kx = 0; kx < 3; ++kx) {
      TapLoad& t = p.tap[ky * 3 + kx];
      t = TapLoad{};
      const uint32_t keep =
          rows & ~(kx == 0 ? left : 0u) & ~(kx == 2 ? right : 0u);
      if (keep == 0) continue;  // reads nothing, pointer at the plane
      const int64_t base = j0 + (ky - 1) * width + (kx - 1);
      t.shift = base < 0 ? __builtin_ctz(keep) : 0;
      t.off = base + t.shift;
      t.keep = static_cast<uint16_t>(keep);
      t.load = static_cast<uint16_t>(keep >> t.shift);
      p.shifted = p.shifted || t.shift != 0;
    }
  }
}

// ------------------------------------------------------------ AVX-512 --

constexpr int kDirectLanes512 = 16;
/// Output channels per block, and per width the most tiles per block that
/// keep ob * tb accumulators, tb taps and one weight in the 32 zmm.
constexpr int kObMax512 = 8;
constexpr int kTbMax512[kObMax512 + 1] = {0, 8, 8, 7, 5, 4, 4, 3, 3};

__attribute__((target("avx512f"))) inline __m512i iota512() {
  return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                           15);
}

/// Plans tile j0 / 16 of an h x w plane: lane rows and columns come from
/// one division and a wrap loop (which runs 16 / w times at most).
__attribute__((target("avx512f"))) void plan_tile_avx512(TilePlan& p,
                                                         int64_t j0,
                                                         int64_t h,
                                                         int64_t w) {
  const int64_t oy0 = j0 / w;
  const __m512i vw = _mm512_set1_epi32(static_cast<int32_t>(w));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i zero = _mm512_setzero_si512();
  __m512i ox = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int32_t>(j0 - oy0 * w)), iota512());
  __m512i oy = _mm512_set1_epi32(static_cast<int32_t>(oy0));
  for (__mmask16 wrap = _mm512_cmpge_epi32_mask(ox, vw); wrap != 0;
       wrap = _mm512_cmpge_epi32_mask(ox, vw)) {
    ox = _mm512_mask_sub_epi32(ox, wrap, ox, vw);
    oy = _mm512_mask_add_epi32(oy, wrap, oy, one);
  }
  const __m512i last_row = _mm512_set1_epi32(static_cast<int32_t>(h - 1));
  const __m512i last_col = _mm512_set1_epi32(static_cast<int32_t>(w - 1));
  plan_taps(p, j0, w, _mm512_cmple_epi32_mask(oy, last_row),
            _mm512_cmpeq_epi32_mask(oy, zero),
            _mm512_cmpeq_epi32_mask(oy, last_row),
            _mm512_cmpeq_epi32_mask(ox, zero),
            _mm512_cmpeq_epi32_mask(ox, last_col));
}

/// Tap q of tile p from `plane`: a masked load, shifted into place when the
/// block has shifted taps (kShift; the permute is then the identity for
/// unshifted ones).
template <bool kShift>
__attribute__((target("avx512f"))) inline __m512 tap_avx512(
    const TilePlan& p, int q, const float* plane) {
  const TapLoad& e = p.tap[q];
  // The mask goes from memory straight to a mask register: compilers route
  // a mask through a general register otherwise, a port-5 uop per tap that
  // the FMAs need.
  __mmask16 m;
  asm("kmovw %1, %0" : "=Yk"(m) : "m"(e.load));
  const __m512 v = _mm512_maskz_loadu_ps(m, plane + e.off);
  if constexpr (!kShift) return v;
  const __m512i idx = _mm512_sub_epi32(iota512(), _mm512_set1_epi32(e.shift));
  return _mm512_maskz_permutexvar_ps(static_cast<__mmask16>(e.keep), idx, v);
}

/// OB output channels from o0 by TB tiles, every image: per element one FMA
/// chain over (c, ky, kx) from zero, then the epilogue (see simd.h).
template <int OB, int TB, bool kShift>
__attribute__((target("avx512f"))) void direct_block_avx512(
    const Conv3x3Args& a, const TilePlan* plan, int64_t o0) {
  const int64_t hw = a.height * a.width, in_c = a.in_c;
  const int64_t w_in = a.w_in, w_tap = a.w_tap;
  const bool affine = a.row_scale != nullptr || a.row_shift != nullptr;
  // One row pointer per channel and one shared tap index, so each weight
  // broadcast is a single base + index load.
  const float* wrow[OB];
  for (int o = 0; o < OB; ++o) wrow[o] = a.w + (o0 + o) * a.w_out;
  for (int64_t img = 0; img < a.n; ++img) {
    __m512 acc[OB][TB];
    for (int o = 0; o < OB; ++o) {
      for (int t = 0; t < TB; ++t) acc[o][t] = _mm512_setzero_ps();
    }
    const float* plane = a.x + img * in_c * hw;
    for (int64_t c = 0; c < in_c; ++c, plane += hw) {
      int64_t idx = c * w_in;
#pragma GCC unroll 3
      for (int q = 0; q < 9; ++q, idx += w_tap) {
        __m512 xv[TB];
        for (int t = 0; t < TB; ++t) xv[t] = tap_avx512<kShift>(plan[t], q, plane);
        for (int o = 0; o < OB; ++o) {
          const __m512 wv = _mm512_set1_ps(wrow[o][idx]);
          for (int t = 0; t < TB; ++t) {
            acc[o][t] = _mm512_fmadd_ps(wv, xv[t], acc[o][t]);
          }
        }
      }
    }
    // Unrolled like the loops above, so the accumulators stay registers.
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      float* yo = a.y + (img * a.out_c + o0 + o) * hw;
      const __m512 rs = _mm512_set1_ps(
          a.row_scale != nullptr ? a.row_scale[o0 + o] : 1.0f);
      const __m512 rh = _mm512_set1_ps(
          a.row_shift != nullptr ? a.row_shift[o0 + o] : 0.0f);
#pragma GCC unroll 8
      for (int t = 0; t < TB; ++t) {
        __m512 v = acc[o][t];
        if (affine) v = _mm512_fmadd_ps(rs, v, rh);
        // vmaxps(v, 0) as the GEMM applies it (NaN and -0 give +0); the
        // all-lanes mask form keeps GCC's _mm512_undefined_ps out.
        if (a.act != Act::kNone) {
          v = _mm512_maskz_max_ps(0xFFFF, v, _mm512_setzero_ps());
        }
        _mm512_mask_storeu_ps(yo + plan[t].j0,
                              static_cast<__mmask16>(plan[t].in), v);
      }
    }
  }
}

/// Picks the block kernel for `tb` tiles (TB counts down to it).
template <int OB, int TB>
__attribute__((target("avx512f"))) void direct_tb_avx512(
    const Conv3x3Args& a, const TilePlan* plan, int tb, int64_t o0) {
  if constexpr (TB > 1) {
    if (tb < TB) return direct_tb_avx512<OB, TB - 1>(a, plan, tb, o0);
  }
  bool shifted = false;
  for (int t = 0; t < TB; ++t) shifted = shifted || plan[t].shifted;
  if (shifted) {
    direct_block_avx512<OB, TB, true>(a, plan, o0);
  } else {
    direct_block_avx512<OB, TB, false>(a, plan, o0);
  }
}

/// Picks the block kernel for `ob` channels (OB counts down to it).
template <int OB>
__attribute__((target("avx512f"))) void direct_ob_avx512(
    const Conv3x3Args& a, const TilePlan* plan, int ob, int tb, int64_t o0) {
  if constexpr (OB > 1) {
    if (ob < OB) return direct_ob_avx512<OB - 1>(a, plan, ob, tb, o0);
  }
  direct_tb_avx512<OB, kTbMax512[OB]>(a, plan, tb, o0);
}

DirectSplit direct_split_avx512(const Conv3x3Args& a) {
  return DirectSplit(a.out_c,
                           ceil_div(a.height * a.width, kDirectLanes512),
                           kObMax512, kTbMax512);
}

int64_t direct_units_avx512(const Conv3x3Args& a) {
  return direct_split_avx512(a).units();
}

__attribute__((target("avx512f"))) void direct_forward_avx512(
    const Conv3x3Args& a, int64_t u0, int64_t u1) {
  const DirectSplit s = direct_split_avx512(a);
  TilePlan plan[kTbMax512[1]];
  int64_t planned = -1;  // tile block the plan holds
  for (int64_t u = u0; u < u1; ++u) {
    const int64_t tbi = u / s.ch.nb, b = u % s.ch.nb;
    const int64_t t0 = tbi * s.tb;
    const int tb = static_cast<int>(std::min(s.tb, s.tiles - t0));
    if (tbi != planned) {
      for (int t = 0; t < tb; ++t) {
        plan_tile_avx512(plan[t], (t0 + t) * kDirectLanes512, a.height,
                         a.width);
      }
      planned = tbi;
    }
    direct_ob_avx512<kObMax512>(a, plan, s.ch.ob(b), tb, s.ch.o0(b));
  }
}

/// Weight-gradient units: output-channel blocks of at most kObGrad512 by
/// input channel by kernel row; tiles are planned kGradChunk at a time.
constexpr int kObGrad512 = 8;
constexpr int64_t kGradChunk = 32;

/// Fixed-tree sum of sixteen lanes (halves, then quarters, then four).
__attribute__((target("avx512f"))) inline float hsum512(__m512 v) {
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0x4E));
  v = _mm512_add_ps(v, _mm512_maskz_shuffle_f32x4(0xFFFF, v, v, 0xB1));
  __m128 x = _mm512_maskz_extractf32x4_ps(0xF, v, 0);
  x = _mm_add_ps(x, _mm_movehl_ps(x, x));
  x = _mm_add_ss(x, _mm_shuffle_ps(x, x, 1));
  return _mm_cvtss_f32(x);
}

/// One weight-gradient unit: OB channels from o0, input channel c, kernel
/// row ky. Sums over (tile chunk, image, tile), then a fixed lane tree.
template <int OB>
__attribute__((target("avx512f"))) void grad_unit_avx512(
    const Conv3x3GradArgs& a, int64_t o0, int64_t c, int ky) {
  const int64_t hw = a.height * a.width;
  const int64_t tiles = ceil_div(hw, kDirectLanes512);
  __m512 acc[OB][3];
  for (int o = 0; o < OB; ++o) {
    for (int kx = 0; kx < 3; ++kx) acc[o][kx] = _mm512_setzero_ps();
  }
  TilePlan plan[kGradChunk];
  for (int64_t t0 = 0; t0 < tiles; t0 += kGradChunk) {
    const int nt = static_cast<int>(std::min(kGradChunk, tiles - t0));
    bool shifted = false;
    for (int t = 0; t < nt; ++t) {
      plan_tile_avx512(plan[t], (t0 + t) * kDirectLanes512, a.height,
                       a.width);
      shifted = shifted || plan[t].shifted;
    }
    for (int64_t img = 0; img < a.n; ++img) {
      const float* plane = a.x + (img * a.in_c + c) * hw;
      const float* dyi = a.dy + (img * a.out_c + o0) * hw;
      for (int t = 0; t < nt; ++t) {
        const TilePlan& p = plan[t];
        __m512 xv[3];
        for (int kx = 0; kx < 3; ++kx) {
          xv[kx] = shifted ? tap_avx512<true>(p, ky * 3 + kx, plane)
                           : tap_avx512<false>(p, ky * 3 + kx, plane);
        }
        const __mmask16 in = static_cast<__mmask16>(p.in);
        for (int o = 0; o < OB; ++o) {
          const __m512 d = _mm512_maskz_loadu_ps(in, dyi + o * hw + p.j0);
          for (int kx = 0; kx < 3; ++kx) {
            acc[o][kx] = _mm512_fmadd_ps(d, xv[kx], acc[o][kx]);
          }
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    float* dw = a.dw + ((o0 + o) * a.in_c + c) * 9 + ky * 3;
#pragma GCC unroll 3
    for (int kx = 0; kx < 3; ++kx) dw[kx] += hsum512(acc[o][kx]);
  }
}

template <int OB>
__attribute__((target("avx512f"))) void grad_ob_avx512(
    const Conv3x3GradArgs& a, int ob, int64_t o0, int64_t c, int ky) {
  if constexpr (OB > 1) {
    if (ob < OB) return grad_ob_avx512<OB - 1>(a, ob, o0, c, ky);
  }
  grad_unit_avx512<OB>(a, o0, c, ky);
}

int64_t grad_units_avx512(const Conv3x3GradArgs& a) {
  return ChannelBlocks(a.out_c, kObGrad512).nb * a.in_c * 3;
}

__attribute__((target("avx512f"))) void grad_avx512(const Conv3x3GradArgs& a,
                                                    int64_t u0, int64_t u1) {
  const ChannelBlocks ch(a.out_c, kObGrad512);
  for (int64_t u = u0; u < u1; ++u) {
    const int ky = static_cast<int>(u % 3);
    const int64_t c = (u / 3) % a.in_c, b = u / (3 * a.in_c);
    grad_ob_avx512<kObGrad512>(a, ch.ob(b), ch.o0(b), c, ky);
  }
}

const DirectConv3x3 kDirectAvx512 = {&direct_units_avx512,
                                     &direct_forward_avx512,
                                     &grad_units_avx512, &grad_avx512};

// --------------------------------------------------------------- AVX2 --
//
// Eight lanes; a lane mask reaches vmaskmovps as a vector, so the plan
// keeps each tap's load mask in vector form beside the bits.

constexpr int kDirectLanes2 = 8;
/// ob * tb accumulators, tb taps, one weight and one mask in 16 ymm.
constexpr int kObMax2 = 4;
constexpr int kTbMax2[kObMax2 + 1] = {0, 6, 4, 3, 2};

struct TilePlan2 {
  TilePlan p;
  alignas(32) int32_t load[9][kDirectLanes2];  ///< tap load masks, per lane
  alignas(32) int32_t in[kDirectLanes2];       ///< in-plane lanes
};

__attribute__((target("avx2,fma"))) inline __m256i iota2() {
  return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
}

/// Lane mask bits -> vmaskmovps mask (all-ones lanes).
__attribute__((target("avx2,fma"))) inline __m256i lanes2(uint32_t bits) {
  const __m256i lane_bit = _mm256_sllv_epi32(_mm256_set1_epi32(1), iota2());
  return _mm256_cmpeq_epi32(
      _mm256_and_si256(_mm256_set1_epi32(static_cast<int32_t>(bits)),
                       lane_bit),
      lane_bit);
}

__attribute__((target("avx2,fma"))) inline uint32_t bits2(__m256i m) {
  return static_cast<uint32_t>(_mm256_movemask_ps(_mm256_castsi256_ps(m)));
}

__attribute__((target("avx2,fma"))) void plan_tile_avx2(TilePlan2& p2,
                                                       int64_t j0, int64_t h,
                                                       int64_t w) {
  const int64_t oy0 = j0 / w;
  const __m256i vw = _mm256_set1_epi32(static_cast<int32_t>(w));
  const __m256i last_row = _mm256_set1_epi32(static_cast<int32_t>(h - 1));
  const __m256i last_col = _mm256_set1_epi32(static_cast<int32_t>(w - 1));
  const __m256i zero = _mm256_setzero_si256();
  __m256i ox = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int32_t>(j0 - oy0 * w)), iota2());
  __m256i oy = _mm256_set1_epi32(static_cast<int32_t>(oy0));
  for (__m256i wrap = _mm256_cmpgt_epi32(ox, last_col);
       !_mm256_testz_si256(wrap, wrap);
       wrap = _mm256_cmpgt_epi32(ox, last_col)) {
    ox = _mm256_sub_epi32(ox, _mm256_and_si256(wrap, vw));
    oy = _mm256_sub_epi32(oy, wrap);  // wrap lanes are -1
  }
  TilePlan& p = p2.p;
  plan_taps(p, j0, w, ~bits2(_mm256_cmpgt_epi32(oy, last_row)) & 0xFFu,
            bits2(_mm256_cmpeq_epi32(oy, zero)),
            bits2(_mm256_cmpeq_epi32(oy, last_row)),
            bits2(_mm256_cmpeq_epi32(ox, zero)),
            bits2(_mm256_cmpeq_epi32(ox, last_col)));
  for (int q = 0; q < 9; ++q) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p2.load[q]),
                       lanes2(p.tap[q].load));
  }
  _mm256_store_si256(reinterpret_cast<__m256i*>(p2.in), lanes2(p.in));
}

template <bool kShift>
__attribute__((target("avx2,fma"))) inline __m256 tap_avx2(
    const TilePlan2& p2, int q, const float* plane) {
  const TapLoad& e = p2.p.tap[q];
  const __m256 v = _mm256_maskload_ps(
      plane + e.off,
      _mm256_load_si256(reinterpret_cast<const __m256i*>(p2.load[q])));
  if constexpr (!kShift) return v;
  const __m256i idx = _mm256_sub_epi32(iota2(), _mm256_set1_epi32(e.shift));
  return _mm256_and_ps(_mm256_permutevar8x32_ps(v, idx),
                       _mm256_castsi256_ps(lanes2(e.keep)));
}

template <int OB, int TB, bool kShift>
__attribute__((target("avx2,fma"))) void direct_block_avx2(
    const Conv3x3Args& a, const TilePlan2* plan, int64_t o0) {
  const int64_t hw = a.height * a.width, in_c = a.in_c;
  const int64_t w_in = a.w_in, w_tap = a.w_tap;
  const bool affine = a.row_scale != nullptr || a.row_shift != nullptr;
  const float* wrow[OB];
  for (int o = 0; o < OB; ++o) wrow[o] = a.w + (o0 + o) * a.w_out;
  for (int64_t img = 0; img < a.n; ++img) {
    __m256 acc[OB][TB];
    for (int o = 0; o < OB; ++o) {
      for (int t = 0; t < TB; ++t) acc[o][t] = _mm256_setzero_ps();
    }
    const float* plane = a.x + img * in_c * hw;
    for (int64_t c = 0; c < in_c; ++c, plane += hw) {
      int64_t idx = c * w_in;
#pragma GCC unroll 3
      for (int q = 0; q < 9; ++q, idx += w_tap) {
        __m256 xv[TB];
        for (int t = 0; t < TB; ++t) xv[t] = tap_avx2<kShift>(plan[t], q, plane);
        for (int o = 0; o < OB; ++o) {
          const __m256 wv = _mm256_broadcast_ss(wrow[o] + idx);
          for (int t = 0; t < TB; ++t) {
            acc[o][t] = _mm256_fmadd_ps(wv, xv[t], acc[o][t]);
          }
        }
      }
    }
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      float* yo = a.y + (img * a.out_c + o0 + o) * hw;
      const __m256 rs = _mm256_set1_ps(
          a.row_scale != nullptr ? a.row_scale[o0 + o] : 1.0f);
      const __m256 rh = _mm256_set1_ps(
          a.row_shift != nullptr ? a.row_shift[o0 + o] : 0.0f);
#pragma GCC unroll 8
      for (int t = 0; t < TB; ++t) {
        __m256 v = acc[o][t];
        if (affine) v = _mm256_fmadd_ps(rs, v, rh);
        if (a.act != Act::kNone) v = _mm256_max_ps(v, _mm256_setzero_ps());
        float* dst = yo + plan[t].p.j0;
        if (plan[t].p.in == 0xFFu) {
          _mm256_storeu_ps(dst, v);
        } else {
          _mm256_maskstore_ps(
              dst, _mm256_load_si256(reinterpret_cast<const __m256i*>(plan[t].in)),
              v);
        }
      }
    }
  }
}

template <int OB, int TB>
__attribute__((target("avx2,fma"))) void direct_tb_avx2(
    const Conv3x3Args& a, const TilePlan2* plan, int tb, int64_t o0) {
  if constexpr (TB > 1) {
    if (tb < TB) return direct_tb_avx2<OB, TB - 1>(a, plan, tb, o0);
  }
  bool shifted = false;
  for (int t = 0; t < TB; ++t) shifted = shifted || plan[t].p.shifted;
  if (shifted) {
    direct_block_avx2<OB, TB, true>(a, plan, o0);
  } else {
    direct_block_avx2<OB, TB, false>(a, plan, o0);
  }
}

template <int OB>
__attribute__((target("avx2,fma"))) void direct_ob_avx2(
    const Conv3x3Args& a, const TilePlan2* plan, int ob, int tb, int64_t o0) {
  if constexpr (OB > 1) {
    if (ob < OB) return direct_ob_avx2<OB - 1>(a, plan, ob, tb, o0);
  }
  direct_tb_avx2<OB, kTbMax2[OB]>(a, plan, tb, o0);
}

DirectSplit direct_split_avx2(const Conv3x3Args& a) {
  return DirectSplit(a.out_c,
                           ceil_div(a.height * a.width, kDirectLanes2),
                           kObMax2, kTbMax2);
}

int64_t direct_units_avx2(const Conv3x3Args& a) {
  return direct_split_avx2(a).units();
}

__attribute__((target("avx2,fma"))) void direct_forward_avx2(
    const Conv3x3Args& a, int64_t u0, int64_t u1) {
  const DirectSplit s = direct_split_avx2(a);
  TilePlan2 plan[kTbMax2[1]];
  int64_t planned = -1;
  for (int64_t u = u0; u < u1; ++u) {
    const int64_t tbi = u / s.ch.nb, b = u % s.ch.nb;
    const int64_t t0 = tbi * s.tb;
    const int tb = static_cast<int>(std::min(s.tb, s.tiles - t0));
    if (tbi != planned) {
      for (int t = 0; t < tb; ++t) {
        plan_tile_avx2(plan[t], (t0 + t) * kDirectLanes2, a.height, a.width);
      }
      planned = tbi;
    }
    direct_ob_avx2<kObMax2>(a, plan, s.ch.ob(b), tb, s.ch.o0(b));
  }
}

/// Three kernel columns by OB channels, three taps, dy and a mask: 16 ymm.
constexpr int kObGrad2 = 3;

/// Fixed-tree sum of eight lanes.
__attribute__((target("avx2,fma"))) inline float hsum2(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

template <int OB>
__attribute__((target("avx2,fma"))) void grad_unit_avx2(
    const Conv3x3GradArgs& a, int64_t o0, int64_t c, int ky) {
  const int64_t hw = a.height * a.width;
  const int64_t tiles = ceil_div(hw, kDirectLanes2);
  __m256 acc[OB][3];
  for (int o = 0; o < OB; ++o) {
    for (int kx = 0; kx < 3; ++kx) acc[o][kx] = _mm256_setzero_ps();
  }
  TilePlan2 plan[kGradChunk];
  for (int64_t t0 = 0; t0 < tiles; t0 += kGradChunk) {
    const int nt = static_cast<int>(std::min(kGradChunk, tiles - t0));
    bool shifted = false;
    for (int t = 0; t < nt; ++t) {
      plan_tile_avx2(plan[t], (t0 + t) * kDirectLanes2, a.height, a.width);
      shifted = shifted || plan[t].p.shifted;
    }
    for (int64_t img = 0; img < a.n; ++img) {
      const float* plane = a.x + (img * a.in_c + c) * hw;
      const float* dyi = a.dy + (img * a.out_c + o0) * hw;
      for (int t = 0; t < nt; ++t) {
        const TilePlan2& p2 = plan[t];
        __m256 xv[3];
        for (int kx = 0; kx < 3; ++kx) {
          xv[kx] = shifted ? tap_avx2<true>(p2, ky * 3 + kx, plane)
                           : tap_avx2<false>(p2, ky * 3 + kx, plane);
        }
        const bool full = p2.p.in == 0xFFu;
        for (int o = 0; o < OB; ++o) {
          const float* src = dyi + o * hw + p2.p.j0;
          const __m256 d =
              full ? _mm256_loadu_ps(src)
                   : _mm256_maskload_ps(
                         src, _mm256_load_si256(
                                  reinterpret_cast<const __m256i*>(p2.in)));
          for (int kx = 0; kx < 3; ++kx) {
            acc[o][kx] = _mm256_fmadd_ps(d, xv[kx], acc[o][kx]);
          }
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    float* dw = a.dw + ((o0 + o) * a.in_c + c) * 9 + ky * 3;
#pragma GCC unroll 3
    for (int kx = 0; kx < 3; ++kx) dw[kx] += hsum2(acc[o][kx]);
  }
}

template <int OB>
__attribute__((target("avx2,fma"))) void grad_ob_avx2(
    const Conv3x3GradArgs& a, int ob, int64_t o0, int64_t c, int ky) {
  if constexpr (OB > 1) {
    if (ob < OB) return grad_ob_avx2<OB - 1>(a, ob, o0, c, ky);
  }
  grad_unit_avx2<OB>(a, o0, c, ky);
}

int64_t grad_units_avx2(const Conv3x3GradArgs& a) {
  return ChannelBlocks(a.out_c, kObGrad2).nb * a.in_c * 3;
}

__attribute__((target("avx2,fma"))) void grad_avx2(const Conv3x3GradArgs& a,
                                                  int64_t u0, int64_t u1) {
  const ChannelBlocks ch(a.out_c, kObGrad2);
  for (int64_t u = u0; u < u1; ++u) {
    const int ky = static_cast<int>(u % 3);
    const int64_t c = (u / 3) % a.in_c, b = u / (3 * a.in_c);
    grad_ob_avx2<kObGrad2>(a, ch.ob(b), ch.o0(b), c, ky);
  }
}

const DirectConv3x3 kDirectAvx2 = {&direct_units_avx2, &direct_forward_avx2,
                                   &grad_units_avx2, &grad_avx2};
#endif  // TBNET_SIMD_HAVE_AVX2

// ------------------------------------------------------------------ NEON --

#if TBNET_SIMD_NEON
#define TBNET_SIMD_HAVE_NEON 1

/// 6x16 as 6 rows x 4 q-registers (24 accumulators; aarch64 has 32).
void micro_neon(int64_t kc, const float* a_panel, const float* b_panel,
                int64_t bstride, float* c, int64_t ldc, int mr, int nr,
                float alpha, float beta, const TileEpilogue* ep) {
  float32x4_t acc[kMR][4];
  for (int i = 0; i < kMR; ++i) {
    for (int q = 0; q < 4; ++q) acc[i][q] = vdupq_n_f32(0.0f);
  }
  for (int64_t p = 0; p < kc; ++p) {
    float32x4_t bq[4];
    for (int q = 0; q < 4; ++q) bq[q] = vld1q_f32(b_panel + p * bstride + 4 * q);
    const float* ap = a_panel + p * kMR;
    for (int i = 0; i < kMR; ++i) {
      const float32x4_t a = vdupq_n_f32(ap[i]);
      for (int q = 0; q < 4; ++q) acc[i][q] = vfmaq_f32(acc[i][q], a, bq[q]);
    }
  }

  if (mr == kMR && nr == kNR) {
    const float32x4_t valpha = vdupq_n_f32(alpha);
    for (int i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      for (int q = 0; q < 4; ++q) {
        float32x4_t v = vmulq_f32(valpha, acc[i][q]);
        if (beta != 0.0f) {
          v = vfmaq_f32(v, vdupq_n_f32(beta), vld1q_f32(crow + 4 * q));
        }
        if (ep != nullptr) {
          if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
            const float rs =
                ep->row_scale != nullptr ? ep->row_scale[i] : 1.0f;
            const float rh =
                ep->row_shift != nullptr ? ep->row_shift[i] : 0.0f;
            v = vfmaq_f32(vdupq_n_f32(rh), vdupq_n_f32(rs), v);
          }
          if (ep->col_shift != nullptr) {
            v = vaddq_f32(v, vld1q_f32(ep->col_shift + 4 * q));
          }
          if (ep->act != Act::kNone) {
            v = vmaxq_f32(v, vdupq_n_f32(0.0f));
          }
        }
        vst1q_f32(crow + 4 * q, v);
      }
    }
    return;
  }

  alignas(16) float tmp[kMR][kNR];
  for (int i = 0; i < kMR; ++i) {
    for (int q = 0; q < 4; ++q) vst1q_f32(tmp[i] + 4 * q, acc[i][q]);
  }
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float rs = ep != nullptr && ep->row_scale != nullptr
                         ? ep->row_scale[i] : 1.0f;
    const float rh = ep != nullptr && ep->row_shift != nullptr
                         ? ep->row_shift[i] : 0.0f;
    for (int j = 0; j < nr; ++j) {
      float v = alpha * tmp[i][j];
      if (beta != 0.0f) v = std::fmaf(beta, crow[j], v);
      if (ep != nullptr) {
        if (ep->row_scale != nullptr || ep->row_shift != nullptr) {
          v = std::fmaf(rs, v, rh);
        }
        if (ep->col_shift != nullptr) v += ep->col_shift[j];
        v = apply_act(v, ep->act);
      }
      crow[j] = v;
    }
  }
}

float dot_neon(const float* a, const float* b, int64_t n) {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
  }
  float total = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < n; ++i) total = std::fmaf(a[i], b[i], total);
  return total;
}

#endif  // TBNET_SIMD_NEON

// -------------------------------------------------------------- dispatch --

struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  MicroKernelFn micro = &micro_scalar<3>;
  MicroKernelFn micro1 = &micro_scalar<1>;
  MicroKernelWideFn wide = nullptr;
  MicroKernelI8Fn micro_i8 = &micro_i8_scalar;
  QuantizeU7GroupFn quant_group = &quant_group_scalar;
  const char* int8_name = "scalar";
  MaskedRowsFn masked_rows = nullptr;
  const DirectConv3x3* direct = nullptr;
  float (*dot)(const float*, const float*, int64_t) = &dot_scalar;
};

Kernels select_kernels() {
  Kernels k;
  if (!fast_kernels_enabled()) return k;  // TBNET_DETERMINISTIC=1
#if defined(TBNET_SIMD_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    k.isa = Isa::kAvx2;
    k.name = "avx2-fma";
    k.micro = &micro_avx2;
    k.micro1 = &micro_avx2_mr1;
    k.masked_rows = &masked_rows_avx2;
    k.direct = &kDirectAvx2;
    k.dot = &dot_avx2;
#if defined(TBNET_SIMD_HAVE_AVX512)
    // The 6x16 kernels stay the AVX2 forms (bit-compatible by contract);
    // AVX-512F only adds the double-width tile the drivers prefer for full
    // panel pairs.
    if (__builtin_cpu_supports("avx512f")) {
      k.isa = Isa::kAvx512;
      k.name = "avx512f-fma";
      k.wide = &micro_avx512_wide;
      k.masked_rows = &masked_rows_avx512;
      k.direct = &kDirectAvx512;
    }
#endif
    // Int8 ladder, probed independently of the f32 tiers: every tier is
    // exact (see simd.h), so the choice is pure throughput.
    k.micro_i8 = &micro_i8_avx2;
    k.quant_group = &quant_group_avx2;
    k.int8_name = "avx2-maddubs";
#if defined(TBNET_SIMD_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f")) {
      k.quant_group = &quant_group_avx512;
    }
#endif
#if defined(TBNET_SIMD_HAVE_VNNI)
    if (__builtin_cpu_supports("avxvnni")) {
      k.micro_i8 = &micro_i8_avxvnni;
      k.int8_name = "avx-vnni";
    }
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
      k.micro_i8 = &micro_i8_avx512vnni;
      k.int8_name = "avx512-vnni";
    }
#if defined(TBNET_SIMD_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512vnni")) {
      k.micro_i8 = &micro_i8_avx512vnni_z;
      k.int8_name = "avx512-vnni";
    }
#endif
#endif
    return k;
  }
#endif
#if defined(TBNET_SIMD_HAVE_NEON)
  k.isa = Isa::kNeon;
  k.name = "neon";
  k.micro = &micro_neon;
  k.micro1 = &micro_neon;
  k.dot = &dot_neon;
  return k;
#endif
  return k;
}

const Kernels& kernels() {
  static const Kernels k = select_kernels();
  return k;
}

}  // namespace

Isa active_isa() { return kernels().isa; }
const char* isa_name() { return kernels().name; }
const char* int8_isa_name() { return kernels().int8_name; }
MicroKernelFn micro_kernel() { return kernels().micro; }
MicroKernelFn micro_kernel_mr1() { return kernels().micro1; }
MicroKernelWideFn micro_kernel_wide() { return kernels().wide; }
MicroKernelI8Fn micro_kernel_i8() { return kernels().micro_i8; }
MicroKernelI8Fn micro_kernel_i8_reference() { return &micro_i8_scalar; }
QuantizeU7GroupFn quantize_u7_group() { return kernels().quant_group; }
MaskedRowsFn masked_rows_kernel() { return kernels().masked_rows; }
const DirectConv3x3* direct_conv3x3() { return kernels().direct; }

const DirectConv3x3* direct_conv3x3_for(Isa isa) {
#if defined(TBNET_SIMD_HAVE_AVX2)
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (isa == Isa::kAvx2 && avx2) return &kDirectAvx2;
#if defined(TBNET_SIMD_HAVE_AVX512)
  if (isa == Isa::kAvx512 && avx2 && __builtin_cpu_supports("avx512f")) {
    return &kDirectAvx512;
  }
#endif
#endif
  (void)isa;
  return nullptr;
}

void require_known_act(Act act) {
  if (!act_known(act)) {
    throw std::invalid_argument(
        "tbnet::simd: unknown Act value " +
        std::to_string(static_cast<int>(act)) +
        " (kernels apply activations by explicit dispatch; extend apply_act "
        "before routing new values into an epilogue)");
  }
}

float dot(const float* a, const float* b, int64_t n) {
  return kernels().dot(a, b, n);
}

bool fast_kernels_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("TBNET_DETERMINISTIC");
    return env == nullptr || std::strcmp(env, "1") != 0;
  }();
  return enabled;
}

}  // namespace tbnet::simd
