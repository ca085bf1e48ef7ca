#pragma once
// ExecutionContext — per-thread execution state for the forward/backward path.
//
// The hot inference path used to allocate fresh std::vector scratch (im2col
// column buffers, gradient columns, ...) on every layer call, so serving
// throughput was dominated by malloc + page-zeroing rather than arithmetic.
// An ExecutionContext bundles:
//   * a WorkspaceArena — a growable bump allocator whose blocks are retained
//     across calls, so steady-state inference performs no heap allocation
//     for scratch;
//   * a ThreadPool handle — which pool the kernels (gemm, im2col) shard on;
//   * a tee::World tag — labels whether this context executes normal-world
//     (REE) or secure-world (TEE) code. The runtime sets it (engine contexts
//     are kNormal, TA-owned contexts kSecure); it is a diagnostic label, not
//     an enforcement mechanism.
//
// Contexts are NOT thread-safe: one context per executing thread. Legacy
// call sites that do not thread a context explicitly get the calling
// thread's default context (default_execution_context()), which preserves
// the old API while still reusing scratch across calls.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tee/world.h"

namespace tbnet {

class ThreadPool;

/// Growable bump allocator for float scratch. Blocks are never freed by
/// rewinding, so after a warm-up call the same workload allocates no new
/// memory ("no growth after warmup" is test-enforced). Not thread-safe.
class WorkspaceArena {
 public:
  WorkspaceArena() = default;
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// Position checkpoint; see mark()/rewind().
  struct Mark {
    size_t block = 0;
    int64_t used = 0;
  };

  /// Returns `n` floats of uninitialized scratch, valid until the enclosing
  /// rewind()/reset(). Always 64-byte aligned (simd::kAlign): block storage
  /// is over-aligned and the bump position rounds up to a cache line, so
  /// packed GEMM panels can use aligned vector loads.
  float* alloc(int64_t n);

  /// Snapshot of the current bump position.
  Mark mark() const;

  /// Returns the arena to a previous mark(); everything allocated after the
  /// mark becomes invalid. Blocks are retained for reuse.
  void rewind(const Mark& m);

  /// Rewinds to empty (blocks retained).
  void reset();

  /// Total floats of backing storage across all blocks.
  int64_t capacity_floats() const;
  int64_t capacity_bytes() const {
    return capacity_floats() * static_cast<int64_t>(sizeof(float));
  }
  size_t block_count() const { return blocks_.size(); }

 private:
  /// Frees storage obtained with the align_val_t form of operator new[].
  struct AlignedDeleter {
    void operator()(float* p) const;
  };

  struct Block {
    std::unique_ptr<float[], AlignedDeleter> data;
    int64_t size = 0;
    int64_t used = 0;
  };

  // blocks_[active_] is the bump frontier; earlier blocks are frozen (their
  // `used` stands), later blocks are empty spares awaiting reuse.
  std::vector<Block> blocks_;
  size_t active_ = 0;
};

/// RAII arena checkpoint: rewinds on scope exit so sibling layer calls reuse
/// the same scratch bytes. Every layer forward/backward opens one.
class ArenaScope {
 public:
  explicit ArenaScope(WorkspaceArena& arena)
      : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  WorkspaceArena& arena_;
  WorkspaceArena::Mark mark_;
};

/// Execution state threaded through tensor kernels, nn layers, the
/// two-branch forward and the deployed runtime. One per thread.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  explicit ExecutionContext(tee::World world, ThreadPool* pool = nullptr)
      : world_(world), pool_(pool) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The workspace is usable through a const context: kernels take
  /// `const ExecutionContext&` (they do not change pool/world) but still bump
  /// scratch, so the arena member is mutable.
  WorkspaceArena& arena() const { return arena_; }

  /// The pool kernels shard on; falls back to ThreadPool::global().
  ThreadPool& pool() const;
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Intra-op width hint (PR 10): caps how many chunks THIS context's
  /// parallel_for()/chunk_size() split a range into (<= 0 = uncapped, the
  /// pool's full width). N dispatch workers each running an engine at full
  /// pool width submit N x num_threads chunks onto num_threads cores; an
  /// elastic server sets each engine context's width to ~num_threads / N so
  /// inter-op and intra-op parallelism compose instead of oversubscribing.
  /// Purely a scheduling hint — results stay bit-identical across widths.
  int intra_op_width() const { return intra_op_width_; }
  void set_intra_op_width(int width) {
    intra_op_width_ = width > 0 ? width : 0;
  }

  /// Width-capped shard on this context's pool. Kernels that take a context
  /// must use these (not ctx.pool().parallel_for directly) so the hint
  /// actually reaches the split; both forward the same width, keeping the
  /// chunk boundaries and any begin/chunk-keyed scratch in sync.
  void parallel_for(int64_t n,
                    const std::function<void(int64_t, int64_t)>& fn) const;
  int64_t chunk_size(int64_t n) const;

  tee::World world() const { return world_; }

 private:
  mutable WorkspaceArena arena_;
  tee::World world_ = tee::World::kNormal;
  ThreadPool* pool_ = nullptr;  // nullptr = ThreadPool::global()
  int intra_op_width_ = 0;      // <= 0 = uncapped
};

/// The calling thread's fallback context (normal world, global pool). Used
/// by the no-context compatibility shims; lives until thread exit.
ExecutionContext& default_execution_context();

}  // namespace tbnet
