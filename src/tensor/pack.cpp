#include "tensor/pack.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "tensor/threadpool.h"

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace tbnet {
namespace packdetail {
namespace {

using simd::kKG;
using simd::kMR;
using simd::kNR;

int64_t ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Rows of a producer scratch panel: the deepest k-slice it ever holds. A
/// shallow GEMM (k = 144 for a 16-channel 3x3 conv) never fills kBlockK.
int64_t slab_depth(int64_t k) { return std::clamp<int64_t>(k, 1, kBlockK); }

}  // namespace

int64_t packed_a_floats(int64_t m, int64_t k) {
  return ceil_div(m, kMR) * kMR * std::max<int64_t>(k, 1);
}

int64_t packed_b_floats(int64_t k, int64_t n) {
  return ceil_div(n, kNR) * kNR * std::max<int64_t>(k, 1);
}

namespace {

/// Interleaves six full rows r[0..5] (each kc floats) into the [kc][6] A
/// panel layout, four taps per step with an SSE 4x4 transpose. This is the
/// transpose the packed layout needs, done a register at a time; it matters
/// where A is large, as for the column matrix of a conv's weight gradient.
/// Returns how many taps it wrote (a multiple of 4).
int64_t pack_a_rows6(const float* const* r, int64_t kc, float* panel) {
  int64_t p = 0;
#if defined(__SSE2__)
  static_assert(kMR == 6);
  for (; p + 4 <= kc; p += 4) {
    __m128 x0 = _mm_loadu_ps(r[0] + p), x1 = _mm_loadu_ps(r[1] + p);
    __m128 x2 = _mm_loadu_ps(r[2] + p), x3 = _mm_loadu_ps(r[3] + p);
    const __m128 x4 = _mm_loadu_ps(r[4] + p), x5 = _mm_loadu_ps(r[5] + p);
    _MM_TRANSPOSE4_PS(x0, x1, x2, x3);  // x_j = rows 0..3 at tap p + j
    const __m128 lo = _mm_unpacklo_ps(x4, x5);  // rows 4, 5 at p, p + 1
    const __m128 hi = _mm_unpackhi_ps(x4, x5);  // rows 4, 5 at p + 2, p + 3
    float* col = panel + p * kMR;
    _mm_storeu_ps(col, x0);
    _mm_storel_pi(reinterpret_cast<__m64*>(col + 4), lo);
    _mm_storeu_ps(col + 6, x1);
    _mm_storeh_pi(reinterpret_cast<__m64*>(col + 10), lo);
    _mm_storeu_ps(col + 12, x2);
    _mm_storel_pi(reinterpret_cast<__m64*>(col + 16), hi);
    _mm_storeu_ps(col + 18, x3);
    _mm_storeh_pi(reinterpret_cast<__m64*>(col + 22), hi);
  }
#else
  (void)r;
  (void)kc;
  (void)panel;
#endif
  return p;
}

}  // namespace

/// Packs the A panel at row offset i0 across every k block.
void pack_a_panel(int64_t m, int64_t k, const float* a, int64_t lda,
                  int64_t m_round, int64_t i0, float* dst) {
  for (int64_t kk = 0; kk < k; kk += kBlockK) {
    const int64_t kc = std::min(kBlockK, k - kk);
    float* panel = dst + m_round * kk + i0 * kc;
    int64_t p = 0;
    if (i0 + kMR <= m) {
      const float* r[kMR];
      for (int64_t j = 0; j < kMR; ++j) r[j] = a + (i0 + j) * lda + kk;
      p = pack_a_rows6(r, kc, panel);
    }
    for (; p < kc; ++p) {
      float* col = panel + p * kMR;
      for (int64_t r = 0; r < kMR; ++r) {
        const int64_t row = i0 + r;
        col[r] = row < m ? a[row * lda + kk + p] : 0.0f;
      }
    }
  }
}

/// Same panel from the transposed source: `at` is [k, m] row-major, so tap
/// (row, kk + p) lives at at[(kk + p) * ldat + row]. Byte-identical output.
void pack_a_panel_from_at(int64_t m, int64_t k, const float* at, int64_t ldat,
                          int64_t m_round, int64_t i0, float* dst) {
  for (int64_t kk = 0; kk < k; kk += kBlockK) {
    const int64_t kc = std::min(kBlockK, k - kk);
    float* panel = dst + m_round * kk + i0 * kc;
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = at + (kk + p) * ldat;
      float* col = panel + p * kMR;
      for (int64_t r = 0; r < kMR; ++r) {
        const int64_t row = i0 + r;
        col[r] = row < m ? src[row] : 0.0f;
      }
    }
  }
}

void pack_a_rowmajor(int64_t m, int64_t k, const float* a, int64_t lda,
                     float* dst) {
  const int64_t m_round = ceil_div(m, kMR) * kMR;
  for (int64_t i0 = 0; i0 < m_round; i0 += kMR) {
    pack_a_panel(m, k, a, lda, m_round, i0, dst);
  }
}

void pack_a_rowmajor(ThreadPool& pool, int64_t m, int64_t k, const float* a,
                     int64_t lda, float* dst, int max_width) {
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t m_round = mpan * kMR;
  pool.parallel_for(
      mpan,
      [&](int64_t p0, int64_t p1) {
        for (int64_t ip = p0; ip < p1; ++ip) {
          pack_a_panel(m, k, a, lda, m_round, ip * kMR, dst);
        }
      },
      max_width);
}

void pack_a_from_at(int64_t m, int64_t k, const float* at, int64_t ldat,
                    float* dst) {
  const int64_t m_round = ceil_div(m, kMR) * kMR;
  for (int64_t i0 = 0; i0 < m_round; i0 += kMR) {
    pack_a_panel_from_at(m, k, at, ldat, m_round, i0, dst);
  }
}

void pack_a_from_at(ThreadPool& pool, int64_t m, int64_t k, const float* at,
                    int64_t ldat, float* dst, int max_width) {
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t m_round = mpan * kMR;
  pool.parallel_for(
      mpan,
      [&](int64_t p0, int64_t p1) {
        for (int64_t ip = p0; ip < p1; ++ip) {
          pack_a_panel_from_at(m, k, at, ldat, m_round, ip * kMR, dst);
        }
      },
      max_width);
}

/// Packs the B panel at column offset j0 across every k block.
void pack_b_panel_from_bt(int64_t n, int64_t k, const float* bt, int64_t ldbt,
                          int64_t n_round, int64_t j0, float* dst) {
  for (int64_t kk = 0; kk < k; kk += kBlockK) {
    const int64_t kc = std::min(kBlockK, k - kk);
    float* panel = dst + n_round * kk + j0 * kc;
    // Walk source rows (columns of B) so each bt row streams sequentially.
    for (int64_t c = 0; c < kNR; ++c) {
      const int64_t col = j0 + c;
      if (col < n) {
        const float* src = bt + col * ldbt + kk;
        for (int64_t p = 0; p < kc; ++p) panel[p * kNR + c] = src[p];
      } else {
        for (int64_t p = 0; p < kc; ++p) panel[p * kNR + c] = 0.0f;
      }
    }
  }
}

void pack_b_from_bt(int64_t n, int64_t k, const float* bt, int64_t ldbt,
                    float* dst) {
  const int64_t n_round = ceil_div(n, kNR) * kNR;
  for (int64_t j0 = 0; j0 < n_round; j0 += kNR) {
    pack_b_panel_from_bt(n, k, bt, ldbt, n_round, j0, dst);
  }
}

void pack_b_from_bt(ThreadPool& pool, int64_t n, int64_t k, const float* bt,
                    int64_t ldbt, float* dst, int max_width) {
  const int64_t npan = ceil_div(n, kNR);
  const int64_t n_round = npan * kNR;
  pool.parallel_for(
      npan,
      [&](int64_t p0, int64_t p1) {
        for (int64_t jp = p0; jp < p1; ++jp) {
          pack_b_panel_from_bt(n, k, bt, ldbt, n_round, jp * kNR, dst);
        }
      },
      max_width);
}

void run_packed(ThreadPool& pool, int64_t m, int64_t n, int64_t k, float alpha,
                const float* apack, const float* bpack, float beta, float* c,
                int64_t ldc, const GemmEpilogue& ep, int max_width) {
  if (m <= 0 || n <= 0) return;
  const simd::MicroKernelFn micro = simd::micro_kernel();
  const simd::MicroKernelFn micro1 = simd::micro_kernel_mr1();
  const simd::MicroKernelWideFn wide = simd::micro_kernel_wide();
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t npan = ceil_div(n, kNR);
  const int64_t m_round = mpan * kMR;
  const int64_t n_round = npan * kNR;
  // k == 0 still runs one zero-depth slice so beta scaling and the epilogue
  // are applied.
  const int64_t kblocks = std::max<int64_t>(1, ceil_div(k, kBlockK));
  const auto body = [&](int64_t jp0, int64_t jp1) {
    for (int64_t jp = jp0; jp < jp1;) {
      const int64_t j0 = jp * kNR;
      const int nr = static_cast<int>(std::min<int64_t>(kNR, n - j0));
      // Pair this panel with the next one for the 6x32 AVX-512 tile when
      // both are full width and still inside this chunk. The wide tile is
      // bit-identical to two 16-wide calls (simd.h), so pairing is a pure
      // throughput decision local to the chunk — results never depend on
      // it. m == 1 keeps the mr1 kernel, which skips the padded rows the
      // wide tile would compute.
      const bool pair =
          wide != nullptr && m > 1 && jp + 1 < jp1 && j0 + 2 * kNR <= n;
      for (int64_t kb = 0; kb < kblocks; ++kb) {
        const int64_t kk = kb * kBlockK;
        const int64_t kc = std::max<int64_t>(0, std::min(kBlockK, k - kk));
        const float* ablock = apack + m_round * kk;
        const float* bpanel = bpack + n_round * kk + j0 * kc;
        const bool last = kb + 1 == kblocks;
        const float beta_eff = kb == 0 ? beta : 1.0f;
        for (int64_t ip = 0; ip < mpan; ++ip) {
          const int64_t i0 = ip * kMR;
          const int mr = static_cast<int>(std::min<int64_t>(kMR, m - i0));
          simd::TileEpilogue te;
          const simd::TileEpilogue* tep = nullptr;
          if (last && !ep.empty()) {
            te.row_scale = ep.row_scale != nullptr ? ep.row_scale + i0 : nullptr;
            te.row_shift = ep.row_shift != nullptr ? ep.row_shift + i0 : nullptr;
            te.col_shift = ep.col_shift != nullptr ? ep.col_shift + j0 : nullptr;
            te.act = ep.act;
            tep = &te;
          }
          if (pair) {
            wide(kc, ablock + i0 * kc, bpanel, kNR, bpanel + kNR * kc, kNR,
                 c + i0 * ldc + j0, ldc, mr, alpha, beta_eff, tep);
          } else {
            (mr == 1 ? micro1 : micro)(kc, ablock + i0 * kc, bpanel, kNR,
                                       c + i0 * ldc + j0, ldc, mr, nr, alpha,
                                       beta_eff, tep);
          }
        }
      }
      jp += pair ? 2 : 1;
    }
  };
  pool.parallel_for(npan, body, max_width);
}

void run_packed_b_rowmajor(ThreadPool& pool, int64_t m, int64_t n, int64_t k,
                           float alpha, const float* apack, const float* b,
                           int64_t ldb, float beta, float* c, int64_t ldc,
                           const GemmEpilogue& ep, int max_width) {
  if (m <= 0 || n <= 0) return;
  const simd::MicroKernelFn micro = simd::micro_kernel();
  const simd::MicroKernelFn micro1 = simd::micro_kernel_mr1();
  const simd::MicroKernelWideFn wide = simd::micro_kernel_wide();
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t npan = ceil_div(n, kNR);
  const int64_t m_round = mpan * kMR;
  const int64_t kblocks = std::max<int64_t>(1, ceil_div(k, kBlockK));
  const auto body = [&](int64_t jp0, int64_t jp1) {
    // Scratch for the single ragged column panel (zero-padded); lives on the
    // worker's stack so tasks never contend.
    alignas(simd::kAlign) float edge[kBlockK * kNR];
    for (int64_t jp = jp0; jp < jp1;) {
      const int64_t j0 = jp * kNR;
      const int nr = static_cast<int>(std::min<int64_t>(kNR, n - j0));
      // Wide-tile pairing (see run_packed): two adjacent full panels of the
      // in-place row-major B are 32 consecutive floats per row.
      const bool pair =
          wide != nullptr && m > 1 && jp + 1 < jp1 && j0 + 2 * kNR <= n;
      for (int64_t kb = 0; kb < kblocks; ++kb) {
        const int64_t kk = kb * kBlockK;
        const int64_t kc = std::max<int64_t>(0, std::min(kBlockK, k - kk));
        const float* ablock = apack + m_round * kk;
        const float* bpanel;
        int64_t bstride;
        if (nr == kNR) {
          bpanel = b + kk * ldb + j0;  // in place: 16 floats per row
          bstride = ldb;
        } else {
          for (int64_t p = 0; p < kc; ++p) {
            const float* src = b + (kk + p) * ldb + j0;
            for (int j = 0; j < nr; ++j) edge[p * kNR + j] = src[j];
            for (int j = nr; j < kNR; ++j) edge[p * kNR + j] = 0.0f;
          }
          bpanel = edge;
          bstride = kNR;
        }
        const bool last = kb + 1 == kblocks;
        const float beta_eff = kb == 0 ? beta : 1.0f;
        for (int64_t ip = 0; ip < mpan; ++ip) {
          const int64_t i0 = ip * kMR;
          const int mr = static_cast<int>(std::min<int64_t>(kMR, m - i0));
          simd::TileEpilogue te;
          const simd::TileEpilogue* tep = nullptr;
          if (last && !ep.empty()) {
            te.row_scale = ep.row_scale != nullptr ? ep.row_scale + i0 : nullptr;
            te.row_shift = ep.row_shift != nullptr ? ep.row_shift + i0 : nullptr;
            te.col_shift = ep.col_shift != nullptr ? ep.col_shift + j0 : nullptr;
            te.act = ep.act;
            tep = &te;
          }
          if (pair) {
            wide(kc, ablock + i0 * kc, bpanel, bstride, bpanel + kNR, bstride,
                 c + i0 * ldc + j0, ldc, mr, alpha, beta_eff, tep);
          } else {
            (mr == 1 ? micro1 : micro)(kc, ablock + i0 * kc, bpanel, bstride,
                                       c + i0 * ldc + j0, ldc, mr, nr, alpha,
                                       beta_eff, tep);
          }
        }
      }
      jp += pair ? 2 : 1;
    }
  };
  pool.parallel_for(npan, body, max_width);
}

int64_t producer_slab_floats(ThreadPool& pool, int64_t n, int64_t k,
                             int max_width) {
  if (n <= 0) return 0;
  const int64_t npan = ceil_div(n, kNR);
  const int64_t nchunks = ceil_div(npan, pool.chunk_size(npan, max_width));
  const int64_t per_chunk = (simd::micro_kernel_wide() != nullptr ? 2 : 1) *
                            slab_depth(k) * kNR;
  return nchunks * per_chunk;
}

void run_packed_b_producer(const ExecutionContext& ctx, int64_t m, int64_t n,
                           int64_t k, float alpha, const float* apack,
                           const PanelProducer& produce, float beta, float* c,
                           int64_t ldc, const GemmEpilogue& ep) {
  if (m <= 0 || n <= 0) return;
  ThreadPool& pool = ctx.pool();
  const simd::MicroKernelFn micro = simd::micro_kernel();
  const simd::MicroKernelFn micro1 = simd::micro_kernel_mr1();
  const simd::MicroKernelWideFn wide = simd::micro_kernel_wide();
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t npan = ceil_div(n, kNR);
  const int64_t m_round = mpan * kMR;
  const int64_t kblocks = std::max<int64_t>(1, ceil_div(k, kBlockK));
  // One scratch slab per parallel_for chunk — [min(k, kBlockK) x kNR], the
  // deepest k-slice a panel ever holds, doubled when the wide tile can
  // consume panel pairs — allocated up front on the calling thread (the
  // arena is single-threaded) and indexed by the chunk origin, which
  // parallel_for guarantees is a multiple of chunk_size. A
  // task processes its panels serially, so one slab per chunk suffices, and
  // the whole allocation rewinds when the call returns.
  // producer_slab_floats() mirrors this accounting for tests. The context's
  // intra-op width reaches BOTH the split and the slab keying, so the
  // chunk-origin contract holds under a cap exactly as it does without one.
  ArenaScope scope(ctx.arena());
  const int width = ctx.intra_op_width();
  const int64_t chunk = pool.chunk_size(npan, width);
  const int64_t depth = slab_depth(k);
  const int64_t slab = (wide != nullptr ? 2 : 1) * depth * kNR;
  float* scratch = ctx.arena().alloc(producer_slab_floats(pool, n, k, width));
  const auto body = [&](int64_t jp0, int64_t jp1) {
    // Slab aliasing here would mean silent output corruption, so the
    // chunk-origin contract (threadpool.h) is enforced in debug builds.
    assert(jp0 % chunk == 0 && jp1 - jp0 <= chunk);
    float* panel = scratch + (jp0 / chunk) * slab;
    for (int64_t jp = jp0; jp < jp1;) {
      const int64_t j0 = jp * kNR;
      const int nr = static_cast<int>(std::min<int64_t>(kNR, n - j0));
      // Wide-tile pairing (see run_packed): produce the neighbor panel into
      // the second half of the slab and feed both to the 6x32 tile.
      const bool pair =
          wide != nullptr && m > 1 && jp + 1 < jp1 && j0 + 2 * kNR <= n;
      for (int64_t kb = 0; kb < kblocks; ++kb) {
        const int64_t kk = kb * kBlockK;
        const int64_t kc = std::max<int64_t>(0, std::min(kBlockK, k - kk));
        produce(kk, kc, j0, nr, panel);
        if (pair) produce(kk, kc, j0 + kNR, kNR, panel + depth * kNR);
        const bool last = kb + 1 == kblocks;
        const float beta_eff = kb == 0 ? beta : 1.0f;
        for (int64_t ip = 0; ip < mpan; ++ip) {
          const int64_t i0 = ip * kMR;
          const int mr = static_cast<int>(std::min<int64_t>(kMR, m - i0));
          simd::TileEpilogue te;
          const simd::TileEpilogue* tep = nullptr;
          if (last && !ep.empty()) {
            te.row_scale = ep.row_scale != nullptr ? ep.row_scale + i0 : nullptr;
            te.row_shift = ep.row_shift != nullptr ? ep.row_shift + i0 : nullptr;
            te.col_shift = ep.col_shift != nullptr ? ep.col_shift + j0 : nullptr;
            te.act = ep.act;
            tep = &te;
          }
          if (pair) {
            wide(kc, apack + m_round * kk + i0 * kc, panel, kNR,
                 panel + depth * kNR, kNR, c + i0 * ldc + j0, ldc, mr, alpha,
                 beta_eff, tep);
          } else {
            (mr == 1 ? micro1 : micro)(kc, apack + m_round * kk + i0 * kc,
                                       panel, kNR, c + i0 * ldc + j0, ldc, mr,
                                       nr, alpha, beta_eff, tep);
          }
        }
      }
      jp += pair ? 2 : 1;
    }
  };
  pool.parallel_for(npan, body, width);
}

// ------------------------------------------------------------------ int8 --

int64_t packed_a_i8_bytes(int64_t m, int64_t k) {
  return ceil_div(m, kMR) * ceil_div(std::max<int64_t>(k, 1), kKG) * kMR * kKG;
}

int64_t panel_b_i8_bytes(int64_t k) {
  return ceil_div(std::max<int64_t>(k, 1), kKG) * kNR * kKG;
}

void pack_a_i8(int64_t m, int64_t k, const int8_t* a, int64_t lda,
               int8_t* dst) {
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t kg = ceil_div(std::max<int64_t>(k, 1), kKG);
  for (int64_t ip = 0; ip < mpan; ++ip) {
    int8_t* panel = dst + ip * kg * kMR * kKG;
    for (int64_t g = 0; g < kg; ++g) {
      int8_t* grp = panel + g * kMR * kKG;
      for (int64_t r = 0; r < kMR; ++r) {
        const int64_t row = ip * kMR + r;
        for (int64_t t = 0; t < kKG; ++t) {
          const int64_t p = g * kKG + t;
          grp[r * kKG + t] = row < m && p < k ? a[row * lda + p] : int8_t{0};
        }
      }
    }
  }
}

void run_packed_i8_producer(const ExecutionContext& ctx, int64_t m, int64_t n,
                            int64_t k, const int8_t* apack,
                            const PanelProducerU8& produce, float* c,
                            int64_t ldc, const simd::QuantEpilogue& ep) {
  if (m <= 0 || n <= 0) return;
  ThreadPool& pool = ctx.pool();
  const simd::MicroKernelI8Fn micro = simd::micro_kernel_i8();
  const int64_t mpan = ceil_div(m, kMR);
  const int64_t npan = ceil_div(n, kNR);
  const int64_t kg = ceil_div(std::max<int64_t>(k, 1), kKG);
  const int64_t a_panel_bytes = kg * kMR * kKG;
  // No kBlockK slicing: the u7 x s8 dot product over the whole CIFAR-scale
  // depth fits i32 exactly (k * 127 * 127 << 2^31), so accumulators live in
  // registers across all of k and the epilogue runs once per tile. The
  // per-chunk slab is one full-depth u8 panel — kg * kNR * kKG bytes, a
  // 16th of the f32 producer's f32 slab at equal depth.
  ArenaScope scope(ctx.arena());
  const int width = ctx.intra_op_width();
  const int64_t chunk = pool.chunk_size(npan, width);
  const int64_t nchunks = ceil_div(npan, chunk);
  const int64_t slab_bytes = panel_b_i8_bytes(k);
  uint8_t* scratch = reinterpret_cast<uint8_t*>(
      ctx.arena().alloc(ceil_div(nchunks * slab_bytes,
                                 static_cast<int64_t>(sizeof(float)))));
  const auto body = [&](int64_t jp0, int64_t jp1) {
    assert(jp0 % chunk == 0 && jp1 - jp0 <= chunk);
    uint8_t* panel = scratch + (jp0 / chunk) * slab_bytes;
    for (int64_t jp = jp0; jp < jp1; ++jp) {
      const int64_t j0 = jp * kNR;
      const int nr = static_cast<int>(std::min<int64_t>(kNR, n - j0));
      produce(0, k, j0, nr, panel);
      for (int64_t ip = 0; ip < mpan; ++ip) {
        const int64_t i0 = ip * kMR;
        const int mr = static_cast<int>(std::min<int64_t>(kMR, m - i0));
        const simd::QuantEpilogue te{ep.scale + i0, ep.shift + i0, ep.act};
        micro(kg, apack + ip * a_panel_bytes, panel, c + i0 * ldc + j0, ldc,
              mr, nr, te);
      }
    }
  };
  pool.parallel_for(npan, body, width);
}

}  // namespace packdetail

// -------------------------------------------------------------- PackedGemm --

void PackedGemm::AlignedDeleter::operator()(float* p) const {
  ::operator delete[](p, std::align_val_t(simd::kAlign));
}

float* PackedGemm::reserve(int64_t floats, WorkspaceArena* arena) {
  // Re-preparing a layer (same or smaller shape, same backing source)
  // re-packs into the storage already held: arena-backed packs sit below
  // every ArenaScope mark and can never be rewound, so allocating again
  // would orphan the old panels. Reuse requires the SAME arena — storage
  // from a different (possibly destroyed) context's arena must not be
  // written through.
  if (store_ != nullptr && floats <= capacity_ && arena == arena_) {
    return store_;
  }
  if (arena != nullptr) {
    owned_.reset();
    store_ = arena->alloc(floats);
  } else {
    // Cached weight panels with no arena supplied: taken once per model
    // load, never on the inference path (which always passes the arena).
    // lint: allow-heap(prepare-time no-arena weight-cache fallback)
    float* p = new (std::align_val_t(simd::kAlign))
        float[static_cast<size_t>(floats)];
    owned_.reset(p);
    store_ = p;
  }
  arena_ = arena;
  capacity_ = floats;
  return store_;
}

void PackedGemm::clear() {
  if (owned_ != nullptr) {
    owned_.reset();
    store_ = nullptr;
    arena_ = nullptr;
    capacity_ = 0;
  }
  // An arena-backed store_ cannot be returned to its arena; it is retained
  // (with its arena tag) so a re-pack after clear() — pruning invalidation —
  // against the same context reuses the same bytes.
  data_ = nullptr;
  side_ = Side::kNone;
  m_ = n_ = k_ = 0;
}

void PackedGemm::pack_a(int64_t m, int64_t k, const float* a,
                        WorkspaceArena* arena) {
  float* dst = reserve(packdetail::packed_a_floats(m, k), arena);
  packdetail::pack_a_rowmajor(m, k, a, k, dst);
  data_ = dst;
  side_ = Side::kA;
  m_ = m;
  n_ = 0;
  k_ = k;
}

void PackedGemm::pack_b_transposed(int64_t n, int64_t k, const float* bt,
                                   WorkspaceArena* arena) {
  float* dst = reserve(packdetail::packed_b_floats(k, n), arena);
  packdetail::pack_b_from_bt(n, k, bt, k, dst);
  data_ = dst;
  side_ = Side::kB;
  m_ = 0;
  n_ = n;
  k_ = k;
}

void PackedGemm::run(const ExecutionContext& ctx, int64_t n, float alpha,
                     const float* b, float beta, float* c,
                     const GemmEpilogue& ep) const {
  if (side_ != Side::kA) {
    throw std::logic_error("PackedGemm::run: operand not packed as A");
  }
  packdetail::run_packed_b_rowmajor(ctx.pool(), m_, n, k_, alpha, data_, b, n,
                                    beta, c, n, ep, ctx.intra_op_width());
}

void PackedGemm::run_with_a(const ExecutionContext& ctx, int64_t m,
                            float alpha, const float* a, float beta, float* c,
                            const GemmEpilogue& ep) const {
  if (side_ != Side::kB) {
    throw std::logic_error("PackedGemm::run_with_a: operand not packed as B");
  }
  ArenaScope scope(ctx.arena());
  float* ap = ctx.arena().alloc(packdetail::packed_a_floats(m, k_));
  packdetail::pack_a_rowmajor(ctx.pool(), m, k_, a, k_, ap,
                              ctx.intra_op_width());
  packdetail::run_packed(ctx.pool(), m, n_, k_, alpha, ap, data_, beta, c, n_,
                         ep, ctx.intra_op_width());
}

}  // namespace tbnet
