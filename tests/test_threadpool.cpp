// ThreadPool tests: the parallel_for contract (chunking, nesting, FIFO
// fairness) and the PR-5 work-stealing scheduler — helping waits, oldest-
// first steals, nested parallel_for under contention, and bit-identity of
// kernel results issued from inside a pool task. Like every ctest entry it
// runs under the TSan CI job: every test here must stay race-free, not
// merely pass.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/execution_context.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

// ------------------------------------------------- basic contract ----------

TEST(ThreadPoolEdge, ParallelForZeroIsANoOp) {
  std::atomic<int> calls{0};
  ThreadPool::global().parallel_for(
      0, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  ThreadPool::global().parallel_for(
      -3, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolEdge, GlobalPoolSafeUnderConcurrentUse) {
  // Hammer the shared pool from several threads at once; each caller must
  // see exactly its own full range covered.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&failures] {
      for (int rep = 0; rep < 50; ++rep) {
        std::atomic<int64_t> covered{0};
        ThreadPool::global().parallel_for(1000, [&](int64_t b, int64_t e) {
          covered.fetch_add(e - b);
        });
        if (covered.load() != 1000) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolEdge, NestedParallelForFromWorkerDoesNotDeadlock) {
  // Regression (PR 4): a parallel_for issued from inside a pool task used to
  // queue chunks and block in the completion wait — with every worker doing
  // the same, the chunks that could release them sat behind the blocked
  // workers forever. The work-stealing pool queues nested chunks on the
  // issuing worker's deque and the issuer executes them in its helping wait,
  // so saturating a small pool with nesting tasks must always complete.
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int64_t> outer_covered{0};
    std::atomic<int64_t> inner_covered{0};
    pool.parallel_for(8, [&](int64_t b, int64_t e) {
      outer_covered.fetch_add(e - b);
      for (int64_t i = b; i < e; ++i) {
        pool.parallel_for(100, [&](int64_t ib, int64_t ie) {
          inner_covered.fetch_add(ie - ib);
        });
      }
    });
    ASSERT_EQ(outer_covered.load(), 8);
    ASSERT_EQ(inner_covered.load(), 8 * 100);
  }
}

TEST(ThreadPoolEdge, NestedParallelForPreservesChunkBoundaries) {
  // A nested parallel_for must split [0, n) at the same chunk_size(n)
  // boundaries as a top-level one: the producer-fed GEMM driver keys
  // per-chunk scratch by begin / chunk_size(n), so any other split would
  // alias its slabs. Stealing may move chunks between threads but must
  // never re-split them.
  ThreadPool pool(3);
  const int64_t n = 10;
  const int64_t chunk = pool.chunk_size(n);
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> nested_chunks;
  pool.parallel_for(1000, [&](int64_t b, int64_t) {
    if (b != 0) return;  // nest from exactly one task
    pool.parallel_for(n, [&](int64_t ib, int64_t ie) {
      std::lock_guard<std::mutex> lock(mu);
      nested_chunks.push_back({ib, ie});
    });
  });
  ASSERT_FALSE(nested_chunks.empty());
  int64_t covered = 0;
  for (const auto& [b, e] : nested_chunks) {
    EXPECT_EQ(b % chunk, 0) << "chunk origin must be a chunk_size multiple";
    EXPECT_LE(e - b, chunk);
    covered += e - b;
  }
  EXPECT_EQ(covered, n);
}

// ------------------------------------------------- work stealing -----------

TEST(ThreadPoolSteal, BlockedCallerExecutesItsPendingChunksItself) {
  // The helping wait: a caller whose queued chunks nobody picks up must run
  // them itself instead of sleeping. Pin the pool's only worker with a gated
  // foreign job, then issue a parallel_for from the test thread — it has to
  // complete (all chunks on the calling thread) while the worker is still
  // pinned. A sleep-only wait would hang here until the release.
  ThreadPool pool(2);  // caller + 1 worker
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int pinned = 0;
  auto gate = [&] {
    std::unique_lock<std::mutex> lock(mu);
    ++pinned;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  std::thread t0([&] {
    // Two chunks: the submitting thread gates in chunk 0, the worker gates
    // in chunk 1 (the submitter is inside fn(0, 1) before its helping loop
    // starts, so it cannot reclaim the queued chunk first).
    pool.parallel_for(2, [&](int64_t, int64_t) { gate(); });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pinned == 2; });
  }
  // Worker pinned: every chunk of this job must execute on this thread.
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int64_t> covered{0};
  std::atomic<int> foreign{0};
  pool.parallel_for(4, [&](int64_t b, int64_t e) {
    covered.fetch_add(e - b);
    if (std::this_thread::get_id() != self) foreign.fetch_add(1);
  });
  EXPECT_EQ(covered.load(), 4);
  EXPECT_EQ(foreign.load(), 0) << "only the helping caller was runnable";
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  t0.join();
}

TEST(ThreadPoolSteal, StealsDrainAWorkersDequeOldestFirst) {
  // FIFO fairness across steals: chunks a nested parallel_for pushes onto
  // its worker's deque must be stolen front-first (issue order). Stage it
  // deterministically on a 3-thread pool: the external caller and the
  // nesting worker are both pinned inside their chunk bodies, so the one
  // idle worker is the only thread that can run the nested chunks — and it
  // must take them in push order.
  ThreadPool pool(3);  // caller + workers A, B
  const int64_t inner_n = 9;
  const int64_t inner_chunk = pool.chunk_size(inner_n);  // 3
  ASSERT_EQ(inner_chunk, 3);
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int64_t> steal_order;
  std::vector<std::thread::id> steal_thread;
  std::thread::id nester_id;
  auto stolen_both = [&] { return steal_order.size() == 2; };

  pool.parallel_for(3, [&](int64_t b, int64_t) {
    if (b == 0) {
      // External caller's chunk: pin until the steals happened so the
      // caller's helping loop cannot compete for the nested chunks.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return stolen_both(); });
      return;
    }
    if (b == 1) {
      // The nesting worker: push [3,6) and [6,9) onto our own deque, then
      // pin inside the inline chunk [0,3) until both are stolen.
      {
        std::lock_guard<std::mutex> lock(mu);
        nester_id = std::this_thread::get_id();
      }
      pool.parallel_for(inner_n, [&](int64_t ib, int64_t) {
        if (ib == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return stolen_both(); });
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        steal_order.push_back(ib);
        steal_thread.push_back(std::this_thread::get_id());
        cv.notify_all();
      });
    }
    // b == 2: the thief-to-be finishes instantly and returns to its loop.
  });

  ASSERT_EQ(steal_order.size(), 2u);
  EXPECT_EQ(steal_order[0], 3) << "oldest nested chunk must be stolen first";
  EXPECT_EQ(steal_order[1], 6);
  EXPECT_EQ(steal_thread[0], steal_thread[1]);
  EXPECT_NE(steal_thread[0], nester_id) << "chunks must have been STOLEN";
}

TEST(ThreadPoolSteal, OverflowQueueDrainsConcurrentJobsFifo) {
  // FIFO fairness between jobs from different external threads: with every
  // submitter pinned inside its own first chunk (so none of them can help)
  // and the single worker initially pinned by an older job, the worker must
  // drain the two marked jobs' queued chunks oldest-job-first once
  // released.
  ThreadPool pool(2);  // caller + 1 worker
  std::mutex mu;
  std::condition_variable cv;
  bool release_worker = false, release_all = false;
  int pinned_caller = 0, pinned_worker = 0, queued = 0;
  std::vector<int> order;

  std::thread t0([&] {
    pool.parallel_for(2, [&](int64_t b, int64_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (b == 0) {  // runs on t0 itself
        ++pinned_caller;
        cv.notify_all();
        cv.wait(lock, [&] { return release_all; });
      } else {  // queued chunk: claimed by the worker
        ++pinned_worker;
        cv.notify_all();
        cv.wait(lock, [&] { return release_worker; });
      }
    });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return pinned_caller == 1 && pinned_worker == 1; });
  }
  // Two marked jobs. Each submitter queues its tagged chunk first (the
  // parallel_for pushes tasks before running chunk 0 on the caller), then
  // pins itself inside chunk 0 — so it never reaches its helping loop while
  // the tagged chunks are pending, and only the worker can run them.
  auto submit_marked = [&](int tag) {
    pool.parallel_for(2, [&, tag](int64_t b, int64_t) {
      std::unique_lock<std::mutex> lock(mu);
      if (b == 0) {
        ++queued;
        cv.notify_all();
        cv.wait(lock, [&] { return release_all; });
      } else {
        order.push_back(tag);
        cv.notify_all();
      }
    });
  };
  std::thread t1([&] { submit_marked(1); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return queued >= 1; });
  }
  std::thread t2([&] { submit_marked(2); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return queued >= 2; });
    release_worker = true;
    cv.notify_all();
    // The worker drains the overflow queue alone; oldest job first.
    cv.wait(lock, [&] { return order.size() == 2; });
    release_all = true;
    cv.notify_all();
  }
  t0.join();
  t1.join();
  t2.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "older job's chunk must run first (FIFO)";
  EXPECT_EQ(order[1], 2);
}

TEST(ThreadPoolSteal, NestedUnderContentionFromConcurrentJobsStress) {
  // The serving shape: dispatch-level jobs from external threads racing
  // kernel-level nested parallel_fors on the shared pool, including
  // depth-2 nesting. Every job must see exactly its own range covered, on
  // every repetition, with chunk boundaries intact.
  ThreadPool pool(4);
  const int64_t kInner = 401;
  const int64_t inner_chunk = pool.chunk_size(kInner);
  for (int rep = 0; rep < 15; ++rep) {
    std::atomic<int64_t> outer{0}, inner{0}, deep{0}, external{0};
    std::atomic<int> bad_chunk{0};
    std::thread contender([&] {
      for (int j = 0; j < 10; ++j) {
        std::atomic<int64_t> mine{0};
        pool.parallel_for(
            777, [&](int64_t b, int64_t e) { mine.fetch_add(e - b); });
        if (mine.load() != 777) external.fetch_add(1);
      }
    });
    pool.parallel_for(8, [&](int64_t b, int64_t e) {
      outer.fetch_add(e - b);
      for (int64_t i = b; i < e; ++i) {
        pool.parallel_for(kInner, [&](int64_t ib, int64_t ie) {
          if (ib % inner_chunk != 0) bad_chunk.fetch_add(1);
          inner.fetch_add(ie - ib);
          if (ib == 0) {  // depth-2 nesting from inside a stolen chunk
            pool.parallel_for(64, [&](int64_t db, int64_t de) {
              deep.fetch_add(de - db);
            });
          }
        });
      }
    });
    contender.join();
    ASSERT_EQ(outer.load(), 8);
    ASSERT_EQ(inner.load(), 8 * kInner);
    ASSERT_EQ(deep.load(), 8 * 64);
    ASSERT_EQ(external.load(), 0);
    ASSERT_EQ(bad_chunk.load(), 0);
  }
}

TEST(ThreadPoolSteal, NestedKernelResultsAreBitIdenticalToSingleThread) {
  // 1-vs-N bit-identity must survive stealing even when the kernel is
  // issued from INSIDE a pool task (the InferenceServer worker / fused
  // conv pattern): the packed GEMM and the producer-fed conv lowering key
  // scratch by chunk origin, and stealing only relocates chunks.
  Rng rng(91);
  const int64_t m = 48, n = 200, k = 96;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);

  ThreadPool solo(1);
  ExecutionContext solo_ctx;
  solo_ctx.set_pool(&solo);
  Tensor c_solo(Shape{m, n});
  gemm_nn(solo_ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_solo.data());

  nn::Conv2d conv(8, 8, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  const Tensor img = Tensor::randn(Shape{2, 8, 16, 16}, rng);
  Tensor conv_solo = conv.forward(solo_ctx, img, false);

  ThreadPool pool(4);
  for (int rep = 0; rep < 10; ++rep) {
    Tensor c_nested(Shape{m, n});
    Tensor conv_nested;
    const int64_t outer_chunk = pool.chunk_size(4);
    pool.parallel_for(4, [&](int64_t ob, int64_t) {
      // Run the kernels from the LAST chunk so they usually land on a
      // worker (the caller takes chunk 0); the other chunks finish fast
      // and their threads contend as thieves.
      if (ob != 3 * outer_chunk) return;
      ExecutionContext nested_ctx;
      nested_ctx.set_pool(&pool);
      gemm_nn(nested_ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
              c_nested.data());
      conv_nested = conv.forward(nested_ctx, img, false);
    });
    for (int64_t i = 0; i < c_solo.numel(); ++i) {
      ASSERT_EQ(c_solo[i], c_nested[i]) << "gemm bit mismatch at " << i;
    }
    ASSERT_EQ(conv_nested.shape(), conv_solo.shape());
    for (int64_t i = 0; i < conv_solo.numel(); ++i) {
      ASSERT_EQ(conv_solo[i], conv_nested[i]) << "conv bit mismatch at " << i;
    }
  }
}

}  // namespace
}  // namespace tbnet
