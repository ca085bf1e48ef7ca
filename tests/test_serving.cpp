// Tests for the batched serving path: ExecutionContext / WorkspaceArena,
// batched DeployedTBNet parity with per-image inference (including
// non-identity channel maps), and InferenceServer request coalescing plus
// its PR-5 parallel dispatch workers (one engine per worker, queue-depth
// and per-worker utilization stats). ThreadPool scheduling tests live in
// test_threadpool.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pruner.h"
#include "core/rollback.h"
#include "models/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/sequential.h"
#include "runtime/deployed.h"
#include "runtime/server.h"
#include "tee/optee_api.h"
#include "tensor/execution_context.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace tbnet::runtime {
namespace {

models::ModelConfig tiny_vgg_cfg() {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 9;
  return cfg;
}

models::ModelConfig tiny_resnet_cfg() {
  models::ModelConfig cfg;
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 21;
  return cfg;
}

/// Prunes every interface to give the model non-identity channel maps, the
/// shape-aligning machinery the batched TA path must also get right.
core::TwoBranchModel pruned_two_branch(const models::ModelConfig& cfg) {
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const auto points = models::prune_points(cfg);
  core::TwoBranchModel snapshot = tb.clone();
  std::vector<std::vector<int64_t>> last_keep;
  for (const auto& point : points) {
    const core::ResolvedPoint rp = core::resolve_point(tb, point);
    std::vector<int64_t> keep;
    for (int64_t c = 0; c < rp.bn_secure->channels(); ++c) {
      if (c % 4 != 1) keep.push_back(c);
    }
    core::apply_channel_keep(tb, point, keep);
    last_keep.push_back(keep);
  }
  core::rollback_finalize(tb, std::move(snapshot), points, last_keep);
  return tb;
}

Tensor random_batch(int64_t n, Rng& rng) {
  return Tensor::randn(Shape{n, 3, 32, 32}, rng);
}

Tensor slice_image(const Tensor& batch, int64_t i) {
  const int64_t stride = batch.numel() / batch.dim(0);
  Tensor img(Shape{batch.dim(1), batch.dim(2), batch.dim(3)});
  const float* src = batch.data() + i * stride;
  std::copy(src, src + stride, img.data());
  return img;
}

// ------------------------------------------------- WorkspaceArena ----------

TEST(WorkspaceArena, RewindReusesStorage) {
  WorkspaceArena arena;
  const auto mark = arena.mark();
  float* a = arena.alloc(1000);
  arena.rewind(mark);
  float* b = arena.alloc(1000);
  EXPECT_EQ(a, b);  // same bytes handed out again
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(WorkspaceArena, AllocationsAre64ByteAligned) {
  // The packed GEMM panels assume cache-line alignment (simd::kAlign);
  // alignment must hold for every allocation, including odd sizes and
  // across ArenaScope rewind/reuse cycles.
  WorkspaceArena arena;
  const auto aligned = [](const float* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };
  EXPECT_TRUE(aligned(arena.alloc(1)));
  EXPECT_TRUE(aligned(arena.alloc(3)));       // odd size must not skew the next
  EXPECT_TRUE(aligned(arena.alloc(1000)));
  EXPECT_TRUE(aligned(arena.alloc(1 << 20)));  // forces a fresh block
  for (int rep = 0; rep < 3; ++rep) {
    ArenaScope scope(arena);
    EXPECT_TRUE(aligned(arena.alloc(7)));
    EXPECT_TRUE(aligned(arena.alloc(129)));
    EXPECT_TRUE(aligned(arena.alloc(1 << 19)));
  }
}

TEST(WorkspaceArena, ScopeRestoresAcrossGrowth) {
  WorkspaceArena arena;
  {
    ArenaScope scope(arena);
    arena.alloc(10);
    arena.alloc(1 << 20);  // forces a second block
  }
  const int64_t capacity = arena.capacity_bytes();
  {
    ArenaScope scope(arena);
    arena.alloc(10);
    arena.alloc(1 << 20);
  }
  EXPECT_EQ(arena.capacity_bytes(), capacity);  // no growth on repeat
}

TEST(WorkspaceArena, NoGrowthAfterForwardWarmup) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  ExecutionContext ctx;
  Rng rng(3);
  const Tensor batch = random_batch(4, rng);
  victim.forward(ctx, batch, false);  // warmup populates the arena
  const int64_t capacity = ctx.arena().capacity_bytes();
  const size_t blocks = ctx.arena().block_count();
  EXPECT_GT(capacity, 0);
  for (int i = 0; i < 5; ++i) victim.forward(ctx, batch, false);
  EXPECT_EQ(ctx.arena().capacity_bytes(), capacity);
  EXPECT_EQ(ctx.arena().block_count(), blocks);
}

// ------------------------------------------- context kernel overloads ------

TEST(ExecutionContext, ContextGemmMatchesLegacy) {
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{7, 13}, rng);
  const Tensor b = Tensor::randn(Shape{13, 9}, rng);
  Tensor c_legacy(Shape{7, 9}), c_ctx(Shape{7, 9});
  gemm_nn(7, 9, 13, 1.0f, a.data(), b.data(), 0.0f, c_legacy.data());
  ExecutionContext ctx;
  gemm_nn(ctx, 7, 9, 13, 1.0f, a.data(), b.data(), 0.0f, c_ctx.data());
  EXPECT_TRUE(allclose(c_legacy, c_ctx, 0.0f, 0.0f));
}

TEST(ExecutionContext, ContextOpsWriteIntoOut) {
  Rng rng(12);
  const Tensor a = Tensor::randn(Shape{5, 6}, rng);
  const Tensor b = Tensor::randn(Shape{5, 6}, rng);
  ExecutionContext ctx;
  Tensor out;
  add(ctx, a, b, out);
  EXPECT_TRUE(allclose(out, add(a, b), 0.0f, 0.0f));
  mul(ctx, a, b, out);  // reuses the existing buffer
  EXPECT_TRUE(allclose(out, mul(a, b), 0.0f, 0.0f));
}

// ---------------------------------------------------- batched engine -------

TEST(DeployedTBNetBatch, BatchedMatchesPerImageBitForBit) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);

  Rng rng(5);
  const int64_t n = 6;
  const Tensor batch = random_batch(n, rng);
  const Tensor batched = deployed.infer_batch(batch);
  ASSERT_EQ(batched.shape(), (Shape{n, 10}));
  for (int64_t i = 0; i < n; ++i) {
    const Tensor single = deployed.infer(slice_image(batch, i));
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_EQ(batched[i * 10 + j], single[j]) << "image " << i;
    }
  }
  // And both match the in-process fused forward on the whole batch — to
  // tight relative tolerance: the engine deploys with BN folded and fused
  // GEMM epilogues, in both kernel modes.
  const Tensor want = tb.forward(batch, false);
  EXPECT_TRUE(allclose(batched, want, 1e-4f, 1e-5f));
}

TEST(DeployedTBNetBatch, BatchedMatchesPerImageWithChannelMaps) {
  const auto cfg = tiny_vgg_cfg();
  core::TwoBranchModel tb = pruned_two_branch(cfg);
  // The rollback finalization must have produced real channel maps,
  // otherwise this test would not cover the alignment path.
  bool has_map = false;
  for (int i = 0; i < tb.num_stages(); ++i) {
    has_map = has_map || !tb.stage(i).channel_map.empty();
  }
  ASSERT_TRUE(has_map);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);

  Rng rng(6);
  const int64_t n = 5;
  const Tensor batch = random_batch(n, rng);
  const Tensor batched = deployed.infer_batch(batch);
  for (int64_t i = 0; i < n; ++i) {
    const Tensor single = deployed.infer(slice_image(batch, i));
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_EQ(batched[i * 10 + j], single[j]) << "image " << i;
    }
  }
  EXPECT_TRUE(allclose(batched, tb.forward(batch, false), 1e-4f, 1e-5f));
}

TEST(DeployedTBNetBatch, ResNetBatchedMatchesPerImage) {
  const auto cfg = tiny_resnet_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(7);
  const int64_t n = 4;
  const Tensor batch = random_batch(n, rng);
  const Tensor batched = deployed.infer_batch(batch);
  for (int64_t i = 0; i < n; ++i) {
    const Tensor single = deployed.infer(slice_image(batch, i));
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_EQ(batched[i * 10 + j], single[j]) << "image " << i;
    }
  }
}

TEST(DeployedTBNetBatch, WorldSwitchesAmortizeAcrossTheBatch) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(8);

  deployed.infer_batch(random_batch(1, rng));
  const int64_t per_image = deployed.world_switches();
  deployed.infer_batch(random_batch(16, rng));
  const int64_t per_batch16 = deployed.world_switches() - per_image;
  // However many images it holds, a batch takes at most one invoke per
  // fused stage. Each invoke switches in; the last also switches back out
  // with the logits.
  EXPECT_GE(per_image, 2);
  EXPECT_LE(per_image, deployed.num_stages() + 1);
  EXPECT_GE(per_batch16, 2);
  EXPECT_LE(per_batch16, deployed.num_stages() + 1);
}

TEST(DeployedTBNetBatch, PredictBatchReleasesOnlyLabels) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(9);
  const int64_t n = 5;
  const Tensor batch = random_batch(n, rng);
  const Tensor logits = deployed.infer_batch(batch);
  const std::vector<int64_t> labels = deployed.predict_batch(batch);
  ASSERT_EQ(labels.size(), static_cast<size_t>(n));
  const std::vector<int64_t> want = argmax_rows(logits);
  EXPECT_EQ(labels, want);
  EXPECT_EQ(ctx.channel().leaked_bytes(), 0);
}

TEST(DeployedTBNetBatch, RejectsOversizedBatch) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-small-batch",
                         DeployedTBNet::Options{.max_batch = 2});
  Rng rng(10);
  EXPECT_THROW(deployed.infer_batch(random_batch(3, rng)),
               std::invalid_argument);
}

TEST(TeeSessionTiming, SimulatedOverheadAccumulates) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  deployed.session().simulate_timing(tee::DeviceProfile::rpi3());
  Rng rng(11);
  const auto t0 = std::chrono::steady_clock::now();
  deployed.infer_batch(random_batch(2, rng));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const double overhead = deployed.session().simulated_overhead_s();
  EXPECT_GT(overhead, 0.0);
  EXPECT_GE(wall, overhead * 0.9);  // the stall really happened
}

// ------------------------------------------------- InferenceServer ---------

TEST(InferenceServer, CoalescesConcurrentSubmitters) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);

  InferenceServer::Config scfg;
  scfg.max_batch = 8;
  scfg.max_queue_delay = std::chrono::microseconds(50000);  // plenty of time
  InferenceServer server(
      [&deployed](const Tensor& nchw) { return deployed.infer_batch(nchw); },
      scfg);

  Rng rng(12);
  const int64_t total = 24;
  const Tensor batch = random_batch(total, rng);
  const Tensor want = tb.forward(batch, false);

  // Concurrent submitters, one image each.
  std::vector<std::future<InferenceResult>> results(
      static_cast<size_t>(total));
  {
    std::vector<std::thread> submitters;
    std::atomic<int64_t> next{0};
    for (int t = 0; t < 6; ++t) {
      submitters.emplace_back([&] {
        for (;;) {
          const int64_t i = next.fetch_add(1);
          if (i >= total) return;
          results[static_cast<size_t>(i)] =
              server.submit(slice_image(batch, i));
        }
      });
    }
    for (auto& th : submitters) th.join();
  }

  for (int64_t i = 0; i < total; ++i) {
    InferenceResult r = results[static_cast<size_t>(i)].get();
    ASSERT_EQ(r.logits.numel(), 10);
    // Tolerance vs the in-process model (the engine is folded/fused); which
    // coalesced batch served a request still cannot change its bits.
    for (int64_t j = 0; j < 10; ++j) {
      const float w = want[i * 10 + j];
      EXPECT_NEAR(r.logits[j], w, 1e-5f + 1e-4f * std::fabs(w))
          << "request " << i;
    }
    EXPECT_GE(r.batch_size, 1);
    EXPECT_LE(r.batch_size, scfg.max_batch);
    EXPECT_GE(r.total_s, 0.0);
    EXPECT_GE(r.total_s, r.queue_s);
  }

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_GT(stats.batches, 0);
  EXPECT_LT(stats.batches, total);  // coalescing actually happened
  EXPECT_GT(stats.coalesced_images, 0);
  EXPECT_GT(stats.mean_batch_size(), 1.0);
  EXPECT_LE(stats.max_batch_observed, scfg.max_batch);
  EXPECT_EQ(stats.request_latency.count(), total);
  EXPECT_EQ(stats.batch_latency.count(), stats.batches);
  EXPECT_GE(stats.request_latency.percentile(99.0),
            stats.request_latency.percentile(50.0));
}

TEST(InferenceServer, DrainWaitsForAllRequests) {
  Rng rng(13);
  nn::Sequential model;
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(3 * 8 * 8, 4, rng);
  InferenceServer server(
      [&model](const Tensor& nchw) { return model.forward(nchw, false); });
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.submit(Tensor::randn(Shape{3, 8, 8}, rng)));
  }
  server.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(server.stats().requests, 10);
}

TEST(InferenceServer, EngineFailureResolvesTypedNotThrown) {
  // PR 7: futures resolve with a typed status — a failing engine or a
  // post-shutdown submit must never make .get() throw.
  InferenceServer server([](const Tensor&) -> Tensor {
    throw std::runtime_error("engine down");
  });
  Rng rng(14);
  auto fut = server.submit(Tensor::randn(Shape{1, 2, 2}, rng));
  InferenceResult r = fut.get();
  EXPECT_EQ(r.status, Status::kEngineError);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("engine down"), std::string::npos) << r.error;
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.engine_errors, 1);

  server.shutdown();
  InferenceResult post =
      server.submit(Tensor::randn(Shape{1, 2, 2}, rng)).get();
  EXPECT_EQ(post.status, Status::kRejected);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(InferenceServer, MalformedShapeIsRejectedAlone) {
  // A bad request must resolve kRejected on its own future; batch-mates
  // submitted around it are served normally (pre-PR-7, the mixed-shape
  // throw inside run_batch failed the whole coalesced batch).
  InferenceServer::Config scfg;
  scfg.max_batch = 8;
  scfg.max_queue_delay = std::chrono::microseconds(20000);
  InferenceServer server(
      [](const Tensor& nchw) { return Tensor(Shape{nchw.dim(0), 2}); }, scfg);
  Rng rng(41);
  auto good0 = server.submit(Tensor::randn(Shape{1, 2, 2}, rng));
  // Wrong rank: not CHW at all.
  auto bad_rank = server.submit(Tensor::randn(Shape{4, 4}, rng));
  // Right rank, wrong shape vs the pinned serving shape.
  auto bad_shape = server.submit(Tensor::randn(Shape{3, 4, 4}, rng));
  auto good1 = server.submit(Tensor::randn(Shape{1, 2, 2}, rng));

  EXPECT_EQ(bad_rank.get().status, Status::kRejected);
  InferenceResult mismatched = bad_shape.get();
  EXPECT_EQ(mismatched.status, Status::kRejected);
  EXPECT_NE(mismatched.error.find("does not match"), std::string::npos)
      << mismatched.error;
  EXPECT_EQ(good0.get().status, Status::kOk);
  EXPECT_EQ(good1.get().status, Status::kOk);

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.engine_errors, 0);
}

TEST(InferenceServer, ConstructionRejectsBadArguments) {
  using BatchFn = InferenceServer::BatchFn;
  using RecoverFn = InferenceServer::RecoverFn;
  const BatchFn engine = [](const Tensor& nchw) {
    return Tensor(Shape{nchw.dim(0), 2});
  };
  const auto pool = [&engine](int n) {
    return std::vector<BatchFn>(static_cast<size_t>(n), engine);
  };
  const InferenceServer::EngineFactory factory = [&engine](int) {
    return std::make_pair(engine, RecoverFn());
  };
  const InferenceServer::Config good;

  // The fixed pool's own arguments.
  EXPECT_THROW(InferenceServer(std::vector<BatchFn>{}, good),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(BatchFn(), good), std::invalid_argument);
  EXPECT_THROW(InferenceServer(std::vector<BatchFn>{engine, BatchFn()}, good),
               std::invalid_argument);
  EXPECT_THROW(
      InferenceServer(pool(2), std::vector<RecoverFn>(1, [] {}), good),
      std::invalid_argument);
  // The elastic server's own arguments.
  EXPECT_THROW(InferenceServer(InferenceServer::EngineFactory(), good),
               std::invalid_argument);
  InferenceServer::Config no_workers;
  no_workers.min_workers = 0;
  EXPECT_THROW(InferenceServer(factory, no_workers), std::invalid_argument);
  InferenceServer::Config inverted;
  inverted.min_workers = 2;
  inverted.max_workers = 1;
  EXPECT_THROW(InferenceServer(factory, inverted), std::invalid_argument);
  const InferenceServer::EngineFactory null_engine = [](int) {
    return std::make_pair(BatchFn(), RecoverFn());
  };
  EXPECT_THROW(InferenceServer(null_engine, good), std::invalid_argument);

  // Config both forms validate.
  InferenceServer::Config no_batch;
  no_batch.max_batch = 0;
  InferenceServer::Config negative_queue;
  negative_queue.queue_capacity = -1;
  InferenceServer::Config not_chw;
  not_chw.input_chw = Shape{32, 32};
  for (const InferenceServer::Config& bad :
       {no_batch, negative_queue, not_chw}) {
    EXPECT_THROW(InferenceServer(pool(2), bad), std::invalid_argument);
    EXPECT_THROW(InferenceServer(factory, bad), std::invalid_argument);
  }
  // The same arguments, well formed, construct.
  EXPECT_NO_THROW(InferenceServer(pool(2), good));
  EXPECT_NO_THROW(InferenceServer(factory, good));
}

TEST(InferenceServer, ShutdownDrainsOutstandingWork) {
  Rng rng(15);
  nn::Sequential model;
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(12, 3, rng);
  std::vector<std::future<InferenceResult>> futures;
  {
    InferenceServer::Config scfg;
    scfg.max_batch = 4;
    scfg.max_queue_delay = std::chrono::microseconds(20000);
    InferenceServer server(
        [&model](const Tensor& nchw) { return model.forward(nchw, false); },
        scfg);
    for (int i = 0; i < 7; ++i) {
      futures.push_back(server.submit(Tensor::randn(Shape{3, 2, 2}, rng)));
    }
  }  // destructor = shutdown: must answer everything first
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f.get().status, Status::kOk);
  }
}

// ------------------------------------------------- LatencyRecorder ---------

TEST(LatencyRecorder, ExactPercentilesBelowCapacity) {
  // Below capacity the reservoir holds every sample, so the bounded
  // recorder must answer percentiles identically to an effectively
  // unbounded one fed the same stream.
  LatencyRecorder bounded(128);
  LatencyRecorder unbounded(1 << 20);
  uint64_t x = 99;
  for (int i = 0; i < 100; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double v = static_cast<double>(x >> 40) * 1e-6;
    bounded.record(v);
    unbounded.record(v);
  }
  EXPECT_EQ(bounded.count(), 100);
  EXPECT_EQ(bounded.samples().size(), 100u);
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_EQ(bounded.percentile(p), unbounded.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(bounded.mean(), unbounded.mean());
  EXPECT_EQ(bounded.min(), unbounded.min());
  EXPECT_EQ(bounded.max(), unbounded.max());
}

TEST(LatencyRecorder, MemoryBoundedAboveCapacityWithExactAggregates) {
  // Past capacity the reservoir stops growing, while count/mean/min/max
  // stay exact running values and percentiles stay plausible estimates.
  const int64_t cap = 64;
  LatencyRecorder rec(cap);
  const int64_t n = 10000;
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(i % 1000) * 1e-6;
    rec.record(v);
    total += v;
  }
  EXPECT_EQ(rec.count(), n);
  EXPECT_EQ(rec.samples().size(), static_cast<size_t>(cap));
  EXPECT_DOUBLE_EQ(rec.mean(), total / static_cast<double>(n));
  EXPECT_DOUBLE_EQ(rec.min(), 0.0);
  EXPECT_DOUBLE_EQ(rec.max(), 999e-6);
  const double p50 = rec.percentile(50.0);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 999e-6);
  EXPECT_THROW(LatencyRecorder(0), std::invalid_argument);
}

TEST(InferenceServer, CoalescedImagesCountsOnlyRiders) {
  // coalesced_images counts images beyond the first of each multi-image
  // batch — a lone request coalesces nothing, and a batch of n saves n - 1
  // engine invocations. Stage the batching deterministically: the engine
  // gates inside its first call while three more requests queue, so the
  // schedule is exactly [1, 3].
  std::mutex mu;
  std::condition_variable cv;
  bool first_call_started = false;
  bool release_first_call = false;
  std::atomic<int> calls{0};
  InferenceServer::Config scfg;
  scfg.max_batch = 8;
  scfg.max_queue_delay = std::chrono::microseconds(500);
  InferenceServer server(
      [&](const Tensor& nchw) {
        if (calls.fetch_add(1) == 0) {
          std::unique_lock<std::mutex> lock(mu);
          first_call_started = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release_first_call; });
        }
        return Tensor(Shape{nchw.dim(0), 2});
      },
      scfg);

  Rng rng(77);
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(server.submit(Tensor::randn(Shape{1, 2, 2}, rng)));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return first_call_started; });
  }
  // The worker is pinned inside batch #1; these three must coalesce into
  // batch #2.
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(Tensor::randn(Shape{1, 2, 2}, rng)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release_first_call = true;
    cv.notify_all();
  }
  server.drain();
  for (auto& f : futures) f.get();

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.max_batch_observed, 3);
  // 2 riders (the batch of 3 minus its first image) — and never more than
  // requests - batches.
  EXPECT_EQ(stats.coalesced_images, 2);
  EXPECT_LE(stats.coalesced_images, stats.requests - stats.batches);
}

// --------------------------------------- parallel dispatch workers ---------

TEST(InferenceServerWorkers, TwoWorkersDispatchBatchesConcurrently) {
  // With two engines the server must run two batches at the same time: both
  // engine calls rendezvous inside the (thread-safe, trivial) engine
  // functions before either returns. A single-worker server can never
  // satisfy the rendezvous — the generous timeout turns a regression into a
  // clean failure instead of a hang.
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool both_entered = false;
  auto engine = [&](const Tensor& nchw) {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      both_entered = cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return entered >= 2; }) ||
                     both_entered;
    }
    return Tensor(Shape{nchw.dim(0), 2});
  };
  InferenceServer::Config scfg;
  scfg.max_batch = 1;  // one request = one batch: the 2nd must overlap
  scfg.max_queue_delay = std::chrono::microseconds(100);
  InferenceServer server(std::vector<InferenceServer::BatchFn>{engine, engine},
                         scfg);
  ASSERT_EQ(server.workers(), 2);

  Rng rng(31);
  auto f0 = server.submit(Tensor::randn(Shape{1, 2, 2}, rng));
  auto f1 = server.submit(Tensor::randn(Shape{1, 2, 2}, rng));
  f0.get();
  f1.get();
  EXPECT_TRUE(both_entered) << "second batch never overlapped the first";

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.batches, 2);
  ASSERT_EQ(stats.per_worker.size(), 2u);
  // Whichever worker took batch #1 was pinned inside it, so batch #2 must
  // have gone to the other: exactly one batch each.
  EXPECT_EQ(stats.per_worker[0].batches, 1);
  EXPECT_EQ(stats.per_worker[1].batches, 1);
  EXPECT_GT(stats.per_worker[0].busy_s, 0.0);
  EXPECT_GT(stats.per_worker[1].busy_s, 0.0);
  EXPECT_GT(stats.uptime_s, 0.0);
  EXPECT_GE(stats.worker_utilization(0), 0.0);
  EXPECT_LE(stats.worker_utilization(0), 1.0);
}

TEST(InferenceServerWorkers, QueueDepthHighWaterIsRecorded) {
  // Pin the lone worker inside its first batch while three more requests
  // queue: the submit-side high-water mark must see all three waiting.
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, release = false;
  std::atomic<int> calls{0};
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  scfg.max_queue_delay = std::chrono::microseconds(100);
  InferenceServer server(
      [&](const Tensor& nchw) {
        if (calls.fetch_add(1) == 0) {
          std::unique_lock<std::mutex> lock(mu);
          started = true;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
        return Tensor(Shape{nchw.dim(0), 2});
      },
      scfg);
  Rng rng(32);
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(server.submit(Tensor::randn(Shape{1, 2, 2}, rng)));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.submit(Tensor::randn(Shape{1, 2, 2}, rng)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  server.drain();
  for (auto& f : futures) f.get();

  const ServingStats stats = server.stats();
  EXPECT_GE(stats.max_queue_depth, 3);
  ASSERT_EQ(stats.per_worker.size(), 1u);
  EXPECT_EQ(stats.per_worker[0].batches, stats.batches);
  EXPECT_EQ(stats.per_worker[0].images, stats.requests);
}

TEST(InferenceServerWorkers, ParallelEnginesServeTheSameModelCorrectly) {
  // The production shape of inter-op parallelism: two independent
  // DeployedTBNet engines (each with its own secure world, session, and
  // ExecutionContext/arena) behind one server. Any request may land on
  // either engine; every answer must match the in-process model.
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world_a, world_b;
  tee::TeeContext ctx_a(world_a), ctx_b(world_b);
  DeployedTBNet engine_a(tb, ctx_a, "tbnet-worker-a");
  DeployedTBNet engine_b(tb, ctx_b, "tbnet-worker-b");

  InferenceServer::Config scfg;
  scfg.max_batch = 4;
  scfg.max_queue_delay = std::chrono::microseconds(2000);
  InferenceServer server(
      std::vector<InferenceServer::BatchFn>{
          [&engine_a](const Tensor& nchw) { return engine_a.infer_batch(nchw); },
          [&engine_b](const Tensor& nchw) { return engine_b.infer_batch(nchw); }},
      scfg);

  Rng rng(33);
  const int64_t total = 16;
  const Tensor batch = random_batch(total, rng);
  const Tensor want = tb.forward(batch, false);
  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < total; ++i) {
    futures.push_back(server.submit(slice_image(batch, i)));
  }
  for (int64_t i = 0; i < total; ++i) {
    InferenceResult r = futures[static_cast<size_t>(i)].get();
    for (int64_t j = 0; j < 10; ++j) {
      const float w = want[i * 10 + j];
      EXPECT_NEAR(r.logits[j], w, 1e-5f + 1e-4f * std::fabs(w))
          << "request " << i;
    }
  }
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, total);
  ASSERT_EQ(stats.per_worker.size(), 2u);
  int64_t worker_batches = 0, worker_images = 0;
  for (const WorkerStats& w : stats.per_worker) {
    worker_batches += w.batches;
    worker_images += w.images;
  }
  EXPECT_EQ(worker_batches, stats.batches);
  EXPECT_EQ(worker_images, stats.requests);
}

}  // namespace
}  // namespace tbnet::runtime
