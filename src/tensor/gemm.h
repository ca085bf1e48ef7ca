#pragma once
// Single-precision matrix multiplication kernels.
//
// These are the workhorses behind convolution (via im2col) and dense layers,
// including their backward passes, which need the transposed variants.
//
// Every entry point packs its operands into microkernel panels (pack.h) and
// drives the dispatched 6x16 microkernel (simd.h), with an optional fused
// per-row/per-column epilogue (bias, BN scale/shift, ReLU) so
// conv -> BN -> activation is one pass over C. Outputs narrower than one
// tile (n < kNR) take a per-element dot (gemm_nt) or the scalar reference
// kernel (gemm_nn, gemm_tn) instead. The register-blocked PR-1 kernels stay
// exported as gemm_*_reference: the parity oracle for tests and benchmarks.
//
// Determinism: the per-element accumulation order depends only on k — never
// on row/column partitioning, pool size, or batch shape — so batched results
// stay bit-identical to per-image calls. The scalar tier (what
// TBNET_DETERMINISTIC=1 selects) runs the reference's per-element chain, so
// with alpha = 1, beta = 0 and k within one driver k-slice (640) it matches
// gemm_*_reference bitwise. The FMA tiers, and fused vs. unfused epilogues,
// agree with the reference to tight relative tolerance (~1e-6 for
// CIFAR-scale shapes; tests enforce 1e-4), not bitwise.

#include <cstdint>

#include "tensor/execution_context.h"
#include "tensor/pack.h"

namespace tbnet {

// Each kernel has a context-taking form (shards on ctx.pool(), packs scratch
// into ctx's arena) and a legacy form that runs on the calling thread's
// default context.

/// C[m,n] = alpha * A[m,k] * B[k,n] + beta * C[m,n]
void gemm_nn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c);
void gemm_nn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta, float* c,
             const GemmEpilogue& ep);
void gemm_nn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c);

/// C[m,n] = alpha * A[m,k] * B^T (B is [n,k]) + beta * C
void gemm_nt(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c);
void gemm_nt(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta, float* c,
             const GemmEpilogue& ep);
void gemm_nt(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c);

/// C[m,n] = alpha * A^T (A is [k,m]) * B[k,n] + beta * C
/// Backward-only (weight-gradient accumulation and dcols). Runs the packed
/// microkernel path — A^T packs into the same panels the un-transposed
/// matrix would, B is consumed in place, and k (the batch*spatial axis for
/// weight gradients) is sliced by the driver's k-blocking — except for
/// n < kNR heads, which keep the scalar reference kernel.
void gemm_tn(const ExecutionContext& ctx, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, const float* b, float beta,
             float* c);
void gemm_tn(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
             const float* b, float beta, float* c);

/// The PR-1 scalar blocked kernels, bit-stable across releases: the oracle
/// parity tests and benchmarks compare the packed path against in-process.
void gemm_nn_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c);
void gemm_nt_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c);
void gemm_tn_reference(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c);

/// Separate-pass epilogue over C[m,n] (row stride ldc) — the unfused
/// reference for GemmEpilogue, also used by the n < kNR paths.
void apply_epilogue_reference(int64_t m, int64_t n, float* c, int64_t ldc,
                              const GemmEpilogue& ep);

}  // namespace tbnet
