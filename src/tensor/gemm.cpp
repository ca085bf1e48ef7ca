#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

// Block sizes tuned for L1-resident inner tiles on typical x86/ARM cores
// (scalar reference kernels; the packed driver carries its own kBlockK).
constexpr int64_t kBlockK = 256;
constexpr int64_t kBlockN = 512;

inline void scale_row(float* c, int64_t n, float beta) {
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<size_t>(n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (int64_t j = 0; j < n; ++j) c[j] *= beta;
  }
}

void gemm_nn_ref_on(ThreadPool& pool, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c) {
  pool.parallel_for(m, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) scale_row(c + i * n, n, beta);
    for (int64_t kk = 0; kk < k; kk += kBlockK) {
      const int64_t k_end = std::min(k, kk + kBlockK);
      for (int64_t jj = 0; jj < n; jj += kBlockN) {
        const int64_t j_end = std::min(n, jj + kBlockN);
        // Register-block 2 (rows of C) x 4 (k-taps): each C row is streamed
        // once per 4 taps instead of once per tap, and each B row feeds two
        // C rows per load (C and B traffic are the bottleneck for the
        // small-m GEMMs im2col convolution produces). The per-element
        // accumulation order over p is unchanged, so results stay
        // bit-identical across shapes and blockings.
        int64_t i = i0;
        for (; i + 2 <= i1; i += 2) {
          float* crow0 = c + i * n;
          float* crow1 = crow0 + n;
          const float* arow0 = a + i * k;
          const float* arow1 = arow0 + k;
          int64_t p = kk;
          for (; p + 4 <= k_end; p += 4) {
            const float a00 = alpha * arow0[p], a01 = alpha * arow0[p + 1];
            const float a02 = alpha * arow0[p + 2], a03 = alpha * arow0[p + 3];
            const float a10 = alpha * arow1[p], a11 = alpha * arow1[p + 1];
            const float a12 = alpha * arow1[p + 2], a13 = alpha * arow1[p + 3];
            const float* b0 = b + p * n;
            const float* b1 = b0 + n;
            const float* b2 = b1 + n;
            const float* b3 = b2 + n;
            for (int64_t j = jj; j < j_end; ++j) {
              const float b0j = b0[j], b1j = b1[j], b2j = b2[j], b3j = b3[j];
              float v0 = crow0[j];
              v0 += a00 * b0j;
              v0 += a01 * b1j;
              v0 += a02 * b2j;
              v0 += a03 * b3j;
              crow0[j] = v0;
              float v1 = crow1[j];
              v1 += a10 * b0j;
              v1 += a11 * b1j;
              v1 += a12 * b2j;
              v1 += a13 * b3j;
              crow1[j] = v1;
            }
          }
          for (; p < k_end; ++p) {
            const float av0 = alpha * arow0[p];
            const float av1 = alpha * arow1[p];
            const float* brow = b + p * n;
            for (int64_t j = jj; j < j_end; ++j) {
              crow0[j] += av0 * brow[j];
              crow1[j] += av1 * brow[j];
            }
          }
        }
        for (; i < i1; ++i) {
          float* crow = c + i * n;
          const float* arow = a + i * k;
          int64_t p = kk;
          for (; p + 4 <= k_end; p += 4) {
            const float av0 = alpha * arow[p];
            const float av1 = alpha * arow[p + 1];
            const float av2 = alpha * arow[p + 2];
            const float av3 = alpha * arow[p + 3];
            const float* b0 = b + p * n;
            const float* b1 = b0 + n;
            const float* b2 = b1 + n;
            const float* b3 = b2 + n;
            for (int64_t j = jj; j < j_end; ++j) {
              float v = crow[j];
              v += av0 * b0[j];
              v += av1 * b1[j];
              v += av2 * b2[j];
              v += av3 * b3[j];
              crow[j] = v;
            }
          }
          // No av == 0 skip here: the blocked paths above always perform
          // the multiply-add, and skipping only in this tail would make a
          // row's bits depend on which path the pool partitioning gave it.
          for (; p < k_end; ++p) {
            const float av = alpha * arow[p];
            const float* brow = b + p * n;
            for (int64_t j = jj; j < j_end; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  });
}

void gemm_nt_ref_on(ThreadPool& pool, int64_t m, int64_t n, int64_t k,
                    float alpha, const float* a, const float* b, float beta,
                    float* c) {
  pool.parallel_for(m, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
      }
    }
  });
}

void gemm_tn_on(ThreadPool& pool, int64_t m, int64_t n, int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  // A is [k, m]; walk k in the outer loop for sequential access to both
  // inputs, parallelizing over output rows (columns of A).
  pool.parallel_for(m, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) scale_row(c + i * n, n, beta);
    for (int64_t p = 0; p < k; ++p) {
      const float* arow = a + p * m;
      const float* brow = b + p * n;
      for (int64_t i = i0; i < i1; ++i) {
        const float av = alpha * arow[i];
        if (av == 0.0f) continue;
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

/// Packed fast path shared by nn/nt: packs the A operand into ctx scratch
/// and runs the microkernel driver. Row-major B is consumed in place;
/// transposed B (gemm_nt) must be packed.
void gemm_packed(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
                 float alpha, const float* a, const float* b,
                 bool b_is_transposed, float beta, float* c,
                 const GemmEpilogue& ep) {
  if (n < simd::kNR) {
    // Narrower than one vector tile (e.g. a 10-class logit head): the tile
    // kernel would compute mostly padding. The choice depends only on n, so
    // per-row bits remain independent of the batch size.
    if (b_is_transposed) {
      // Both operands stream contiguously per output element, so one SIMD
      // dot per element is the roofline path for these shapes — this is
      // what a batch-1 dense head runs (n = classes, B^T rows = weight
      // rows). Each C element is computed independently; bits do not depend
      // on m or the pool partitioning.
      ctx.parallel_for(m, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float* arow = a + i * k;
          float* crow = c + i * n;
          for (int64_t j = 0; j < n; ++j) {
            const float acc = simd::dot(arow, b + j * k, k);
            crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
          }
        }
      });
    } else {
      gemm_nn_ref_on(ctx.pool(), m, n, k, alpha, a, b, beta, c);
    }
    apply_epilogue_reference(m, n, c, n, ep);
    return;
  }
  ArenaScope scope(ctx.arena());
  float* ap = ctx.arena().alloc(packdetail::packed_a_floats(m, k));
  const int width = ctx.intra_op_width();
  packdetail::pack_a_rowmajor(ctx.pool(), m, k, a, k, ap, width);
  if (b_is_transposed) {
    float* bp = ctx.arena().alloc(packdetail::packed_b_floats(k, n));
    packdetail::pack_b_from_bt(ctx.pool(), n, k, b, k, bp, width);
    packdetail::run_packed(ctx.pool(), m, n, k, alpha, ap, bp, beta, c, n, ep,
                           width);
  } else {
    packdetail::run_packed_b_rowmajor(ctx.pool(), m, n, k, alpha, ap, b, n,
                                      beta, c, n, ep, width);
  }
}

}  // namespace

void apply_epilogue_reference(int64_t m, int64_t n, float* c, int64_t ldc,
                              const GemmEpilogue& ep) {
  if (ep.empty()) return;
  simd::require_known_act(ep.act);
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float rs = ep.row_scale != nullptr ? ep.row_scale[i] : 1.0f;
    const float rh = ep.row_shift != nullptr ? ep.row_shift[i] : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      float v = crow[j];
      if (ep.row_scale != nullptr || ep.row_shift != nullptr) v = v * rs + rh;
      if (ep.col_shift != nullptr) v += ep.col_shift[j];
      crow[j] = simd::apply_act(v, ep.act);
    }
  }
}

void gemm_nn_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c) {
  gemm_nn_ref_on(ctx.pool(), m, n, k, alpha, a, b, beta, c);
}

void gemm_nt_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c) {
  gemm_nt_ref_on(ctx.pool(), m, n, k, alpha, a, b, beta, c);
}

void gemm_nn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta, float* c,
             const GemmEpilogue& ep) {
  gemm_packed(ctx, m, n, k, alpha, a, b, /*b_is_transposed=*/false, beta, c,
              ep);
}

void gemm_nn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c) {
  gemm_nn(ctx, m, n, k, alpha, a, b, beta, c, GemmEpilogue{});
}

void gemm_nn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  gemm_nn(default_execution_context(), m, n, k, alpha, a, b, beta, c);
}

void gemm_nt(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta, float* c,
             const GemmEpilogue& ep) {
  gemm_packed(ctx, m, n, k, alpha, a, b, /*b_is_transposed=*/true, beta, c,
              ep);
}

void gemm_nt(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c) {
  gemm_nt(ctx, m, n, k, alpha, a, b, beta, c, GemmEpilogue{});
}

void gemm_nt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  gemm_nt(default_execution_context(), m, n, k, alpha, a, b, beta, c);
}

void gemm_tn_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c) {
  gemm_tn_on(ctx.pool(), m, n, k, alpha, a, b, beta, c);
}

void gemm_tn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c) {
  if (n < simd::kNR) {
    gemm_tn_on(ctx.pool(), m, n, k, alpha, a, b, beta, c);
    return;
  }
  // Packed path for the backward GEMMs (dcols = W^T dy, dW = dy^T x): pack
  // the transposed A into microkernel panels — byte-identical panels to the
  // un-transposed pack, so the result matches gemm_nn on A bitwise — and
  // consume the row-major B in place. The k axis (output channels for
  // dcols, batch*spatial for weight gradients) is sliced by the driver's
  // kBlockK blocking; beta accumulation chains across slices in k order, so
  // the determinism contract (k-ordered per-element accumulation) holds.
  ArenaScope scope(ctx.arena());
  float* ap = ctx.arena().alloc(packdetail::packed_a_floats(m, k));
  packdetail::pack_a_from_at(ctx.pool(), m, k, a, m, ap,
                             ctx.intra_op_width());
  packdetail::run_packed_b_rowmajor(ctx.pool(), m, n, k, alpha, ap, b, n, beta,
                                    c, n, GemmEpilogue{},
                                    ctx.intra_op_width());
}

void gemm_tn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c) {
  gemm_tn(default_execution_context(), m, n, k, alpha, a, b, beta, c);
}

}  // namespace tbnet
