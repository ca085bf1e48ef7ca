#pragma once
// pack.h — panel packing and the packed GEMM driver.
//
// The microkernel (simd.h) wants both operands as contiguous panels:
//   A panels: kMR C-rows wide, laid out [kc][kMR] per k-block;
//   B panels: kNR C-columns wide, laid out [kc][kNR] per k-block.
// This header provides the pack routines, the blocked driver that walks
// panels through the microkernel, and PackedGemm — a per-layer cache of
// packed weight panels so deployed models never repack on the hot path.
//
// Layout of a packed operand (shared by pack_* and run_packed): k is split
// into kBlockK slices; slice kb starts at float offset round_up(m,kMR) * kk
// (A side) or round_up(n,kNR) * kk (B side), and stores its panels
// back-to-back. Edge panels are zero-padded to full width, so the microkernel
// never branches on the k loop.

#include <cstdint>
#include <functional>
#include <memory>

#include "tensor/execution_context.h"
#include "tensor/simd.h"

namespace tbnet {

class ThreadPool;

/// Optional fused per-row / per-column epilogue for a GEMM call, applied to
/// each C element after the alpha/beta update (see simd::TileEpilogue for the
/// exact formula). Row arrays have length m, the column shift length n.
struct GemmEpilogue {
  const float* row_scale = nullptr;
  const float* row_shift = nullptr;
  const float* col_shift = nullptr;
  simd::Act act = simd::Act::kNone;

  bool empty() const {
    return row_scale == nullptr && row_shift == nullptr &&
           col_shift == nullptr && act == simd::Act::kNone;
  }
};

namespace packdetail {

/// k-slice depth. The A panel slice (kMR * kBlockK floats = 15 KiB) stays
/// L1-resident while a tile accumulates; 640 covers every CIFAR-scale im2col
/// depth (<= 576) in one slice, so C tiles accumulate entirely in registers
/// for the serving shapes. Each slice adds its own chain into C.
constexpr int64_t kBlockK = 640;

/// Floats needed to pack an A operand [m, k] / a B operand [k, n].
int64_t packed_a_floats(int64_t m, int64_t k);
int64_t packed_b_floats(int64_t k, int64_t n);

/// Packs row-major A [m, k] (row stride lda) into A panels at `dst`.
/// The pool form shards over row panels (disjoint writes, pure data
/// movement, so the packed bytes are identical to the serial form).
void pack_a_rowmajor(int64_t m, int64_t k, const float* a, int64_t lda,
                     float* dst);
void pack_a_rowmajor(ThreadPool& pool, int64_t m, int64_t k, const float* a,
                     int64_t lda, float* dst, int max_width = 0);

/// Packs A panels from A^T: `at` is [k, m] row-major (row stride ldat), the
/// layout gemm_tn receives (logical A row i is at's column i). Produces the
/// same panel bytes pack_a_rowmajor would for the un-transposed matrix.
void pack_a_from_at(int64_t m, int64_t k, const float* at, int64_t ldat,
                    float* dst);
void pack_a_from_at(ThreadPool& pool, int64_t m, int64_t k, const float* at,
                    int64_t ldat, float* dst, int max_width = 0);

/// Packs B panels from B^T: `bt` is [n, k] row-major (row stride ldbt), the
/// natural layout of a Dense weight used as the right operand. (Row-major B
/// never packs — run_packed_b_rowmajor consumes it in place.) The pool form
/// shards over column panels.
void pack_b_from_bt(int64_t n, int64_t k, const float* bt, int64_t ldbt,
                    float* dst);
void pack_b_from_bt(ThreadPool& pool, int64_t n, int64_t k, const float* bt,
                    int64_t ldbt, float* dst, int max_width = 0);

/// C[m, n] (row stride ldc) = ep(alpha * A * B + beta * C) from packed
/// operands. Parallelizes over column panels on `pool`, splitting at most
/// `max_width` ways (<= 0 = pool width; see ThreadPool::parallel_for) —
/// per-element bits are independent of the pool size, the width cap, and
/// the m/n partitioning (see simd.h).
void run_packed(ThreadPool& pool, int64_t m, int64_t n, int64_t k, float alpha,
                const float* apack, const float* bpack, float beta, float* c,
                int64_t ldc, const GemmEpilogue& ep, int max_width = 0);

/// Same contract, but the right operand is a row-major B [k, n] (row stride
/// ldb) read IN PLACE: a full column panel of row-major B is already kNR
/// contiguous floats per row, so only the ragged final panel (n % kNR != 0)
/// is packed — into a small per-task scratch — and the im2col/colbuf B of
/// the conv hot path never gets copied at all. Bit-identical to packing B
/// first (same loads, same FMA order).
void run_packed_b_rowmajor(ThreadPool& pool, int64_t m, int64_t n, int64_t k,
                           float alpha, const float* apack, const float* b,
                           int64_t ldb, float beta, float* c, int64_t ldc,
                           const GemmEpilogue& ep, int max_width = 0);

/// Writes one B panel on demand: the [kc x nr] slab covering logical B rows
/// [kk, kk+kc) and columns [j0, j0+nr), laid out [kc][kNR] at `panel` with
/// columns [nr, kNR) zero-filled. This is how the hot paths feed the driver
/// without ever materializing the right operand: the conv producer reads
/// straight from the padded CHW image (im2col_pack_panel).
using PanelProducer = std::function<void(int64_t kk, int64_t kc, int64_t j0,
                                         int nr, float* panel)>;

/// Same contract as run_packed_b_rowmajor, but the right operand is
/// *produced* panel by panel instead of read from memory: `produce` is
/// invoked once per (column panel, k-block) and must fill the scratch panel
/// with exactly the bytes a packed B would hold there. Sharded over column
/// panels on ctx's pool with one [min(k, kBlockK) x kNR] scratch slab per
/// parallel_for chunk, allocated up front from ctx's arena (and rewound on
/// return). Because the microkernel sees the same panel values in the same
/// k order, results are bit-identical to materializing the B matrix and
/// calling run_packed_b_rowmajor — and independent of the pool size.
/// `produce` runs on worker threads: it must be thread-safe for disjoint
/// panels and must not touch the arena or call parallel_for.
void run_packed_b_producer(const ExecutionContext& ctx, int64_t m, int64_t n,
                           int64_t k, float alpha, const float* apack,
                           const PanelProducer& produce, float beta, float* c,
                           int64_t ldc, const GemmEpilogue& ep);

/// Arena floats run_packed_b_producer allocates for its per-chunk B slabs
/// for an n-column, depth-k GEMM on `pool` — one [min(k, kBlockK) x kNR]
/// slab per parallel_for chunk, double width when the AVX-512 pair tile is
/// active. `max_width` must match the ctx's intra-op width (0 = uncapped)
/// so the chunk count matches the driver's split. Exposed so tests can
/// assert producer arena usage against the real accounting instead of
/// pinning a pool size.
int64_t producer_slab_floats(ThreadPool& pool, int64_t n, int64_t k,
                             int max_width = 0);

// ------------------------------------------------------------------ int8 --
//
// Quantized panel formats (simd.h): k is grouped by simd::kKG = 4 with NO
// kBlockK slicing — the u7 x s8 products keep the full-depth i32 dot product
// exact, so accumulators stay in registers across all of k and the epilogue
// runs exactly once per tile.

/// Bytes needed to pack an s8 A operand [m, k] as int8 panels:
/// ceil(m/kMR) panels of ceil(k/kKG) groups x kMR x kKG bytes.
int64_t packed_a_i8_bytes(int64_t m, int64_t k);

/// Bytes of ONE u8 B panel covering the full depth k (the producer slab
/// granule): ceil(k/kKG) groups x kNR x kKG bytes.
int64_t panel_b_i8_bytes(int64_t k);

/// Packs row-major s8 A [m, k] (row stride lda) into int8 A panels at `dst`.
/// Rows past m and taps past k are zero (contribute exactly 0 to any tile).
void pack_a_i8(int64_t m, int64_t k, const int8_t* a, int64_t lda,
               int8_t* dst);

/// Writes one u8 B panel on demand: the [kc x nr] activation slab covering
/// B rows [kk, kk+kc) and columns [j0, j0+nr), QUANTIZED to u7 and laid out
/// in the grouped int8 format at `panel` (group g holds taps kk+4g..kk+4g+3;
/// element (p, j) at byte (p/4)*kNR*kKG + j*kKG + p%4). Columns [nr, kNR)
/// and taps past kc must be zero-filled. The int8 driver always passes
/// kk == 0, kc == k (no k slicing); the signature keeps the f32 producer's
/// shape so the same lowering code can build either. Same thread-safety
/// contract as PanelProducer.
using PanelProducerU8 = std::function<void(int64_t kk, int64_t kc, int64_t j0,
                                           int nr, uint8_t* panel)>;

/// C[m, n] = ep(A_q * B_q) from a packed s8 A and produced u8 B panels.
/// C is written, never accumulated into (the int8 path has no beta); the
/// QuantEpilogue (never-null scale/shift of length m, pre-composed by the
/// caller) is applied to every tile. Sharded over column panels with one
/// full-depth u8 slab per parallel_for chunk from ctx's arena (rewound on
/// return). Bits are identical across ISAs and pool sizes, so the scalar
/// tier TBNET_DETERMINISTIC=1 selects changes none (see simd.h).
void run_packed_i8_producer(const ExecutionContext& ctx, int64_t m, int64_t n,
                            int64_t k, const int8_t* apack,
                            const PanelProducerU8& produce, float* c,
                            int64_t ldc, const simd::QuantEpilogue& ep);

}  // namespace packdetail

/// Cached packed panels of one GEMM operand — in practice a layer's weight,
/// packed once at deploy time (Layer::prepare_inference) so the serving hot
/// path skips per-call packing of the stationary side.
///
/// Storage comes from the caller's long-lived ExecutionContext arena when one
/// is supplied (allocations made before any ArenaScope mark survive every
/// rewind), else from an internally owned 64-byte-aligned buffer. Copying a
/// PackedGemm yields an EMPTY cache: packs are host/layout-specific and a
/// cloned layer must re-prepare — this is what makes Layer::clone() safe by
/// construction.
class PackedGemm {
 public:
  enum class Side { kNone, kA, kB };

  PackedGemm() = default;
  PackedGemm(const PackedGemm&) {}
  PackedGemm& operator=(const PackedGemm&) {
    clear();
    return *this;
  }

  /// Packs `a` [m, k] row-major as the left operand (conv weights).
  void pack_a(int64_t m, int64_t k, const float* a,
              WorkspaceArena* arena = nullptr);

  /// Packs `bt` [n, k] row-major (= B^T) as the right operand (dense
  /// weights: C = X * W^T with W stored [out, in]).
  void pack_b_transposed(int64_t n, int64_t k, const float* bt,
                         WorkspaceArena* arena = nullptr);

  bool empty() const { return data_ == nullptr; }
  void clear();

  Side side() const { return side_; }
  int64_t depth() const { return k_; }  ///< shared k extent
  int64_t rows() const { return m_; }   ///< C rows when side == kA
  int64_t cols() const { return n_; }   ///< C cols when side == kB

  /// side kA: C[rows(), n] = ep(alpha * A * b + beta * C); `b` is [k, n]
  /// row-major and is consumed IN PLACE by the microkernel (only ragged edge
  /// panels copy to per-task stack scratch) — `b` must stay valid for the
  /// whole call and its full-width rows in bounds, and ctx's arena is not
  /// touched.
  void run(const ExecutionContext& ctx, int64_t n, float alpha, const float* b,
           float beta, float* c, const GemmEpilogue& ep = {}) const;

  /// side kB: C[m, cols()] = ep(alpha * a * B + beta * C); `a` is [m, k]
  /// row-major and is packed per call into ctx's arena.
  void run_with_a(const ExecutionContext& ctx, int64_t m, float alpha,
                  const float* a, float beta, float* c,
                  const GemmEpilogue& ep = {}) const;

  /// Raw packed panels (run_packed layout); for callers that drive the
  /// packed driver themselves (Conv2d loops images around one packed weight).
  const float* data() const { return data_; }

 private:
  float* reserve(int64_t floats, WorkspaceArena* arena);

  struct AlignedDeleter {
    void operator()(float* p) const;
  };

  const float* data_ = nullptr;  ///< valid packed panels (null when empty)
  float* store_ = nullptr;       ///< backing storage, reused across re-packs
  WorkspaceArena* arena_ = nullptr;  ///< arena store_ came from (null = owned)
  int64_t capacity_ = 0;         ///< floats store_ can hold
  std::unique_ptr<float[], AlignedDeleter> owned_;
  Side side_ = Side::kNone;
  int64_t m_ = 0, n_ = 0, k_ = 0;
};

}  // namespace tbnet
