// Fault-tolerance and overload tests (PR 7): the tee::FaultInjector at the
// optee_api boundaries, DeployedTBNet's bounded transient retry, and the
// InferenceServer's admission control (bounded queue + Block/Reject/
// ShedOldest), per-request deadlines, and typed failure accounting. The
// invariant under test throughout: every submitted future resolves with a
// typed status — faults, overload, and shutdown never hang a client or
// poison a sibling batch.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "models/model_zoo.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "runtime/server.h"
#include "tee/fault.h"
#include "tee/optee_api.h"
#include "tensor/ops.h"

namespace tbnet::runtime {
namespace {

using tee::FaultInjector;
using Kind = tee::FaultInjector::Kind;

models::ModelConfig tiny_vgg_cfg() {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 9;
  return cfg;
}

core::TwoBranchModel tiny_two_branch() {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  return models::build_two_branch(victim, cfg);
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

/// A trivial engine whose FIRST call parks inside the engine until
/// release() — the staging tool that makes queue states deterministic:
/// while the single dispatch worker is pinned, submits queue up (or trip
/// the admission policy) with no race.
struct GatedEngine {
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool released = false;
  std::atomic<int> calls{0};

  InferenceServer::BatchFn fn() {
    return [this](const Tensor& nchw) {
      if (calls.fetch_add(1) == 0) {
        std::unique_lock<std::mutex> lock(mu);
        started = true;
        cv.notify_all();
        cv.wait(lock, [this] { return released; });
      }
      return Tensor(Shape{nchw.dim(0), 2});
    };
  }
  void wait_started() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return started; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

Tensor chw(Rng& rng) { return Tensor::randn(Shape{1, 2, 2}, rng); }

// ---------------------------------------------------- FaultInjector --------

TEST(FaultInjector, SeededSamplingIsDeterministic) {
  FaultInjector a(42, 0.5);
  FaultInjector b(42, 0.5);
  int faults = 0;
  for (int i = 0; i < 200; ++i) {
    bool fa = false, fb = false;
    try {
      a.check("invoke");
    } catch (const tee::TransientFault&) {
      fa = true;
    }
    try {
      b.check("invoke");
    } catch (const tee::TransientFault&) {
      fb = true;
    }
    EXPECT_EQ(fa, fb) << "draw " << i;
    faults += fa ? 1 : 0;
  }
  // Same seed, same stream; and a 0.5 rate really fires about half the time.
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(faults, 50);
  EXPECT_LT(faults, 150);

  FaultInjector never(7, 0.0);
  FaultInjector always(7, 1.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NO_THROW(never.check("invoke"));
    EXPECT_THROW(always.check("invoke"), tee::TransientFault);
  }
  FaultInjector permanent(7, 1.0, 1.0);
  EXPECT_THROW(permanent.check("open"), tee::PermanentFault);
  EXPECT_EQ(permanent.permanents_injected(), 1);
  EXPECT_EQ(permanent.transients_injected(), 0);
}

TEST(FaultInjector, ScriptedQueueTargetsExactBoundaries) {
  FaultInjector inj(1, 0.0);
  // kNone lets exactly one crossing pass; the transient fires on the next.
  inj.script(Kind::kNone);
  inj.script(Kind::kTransient);
  EXPECT_EQ(inj.scripted_pending(), 2);
  EXPECT_NO_THROW(inj.check("invoke"));
  EXPECT_THROW(inj.check("transfer"), tee::TransientFault);
  EXPECT_EQ(inj.scripted_pending(), 0);
  EXPECT_NO_THROW(inj.check("invoke"));  // queue drained, rate 0
  EXPECT_EQ(inj.faults_injected(), 1);
  inj.script(Kind::kTransient, 3);
  inj.clear_script();
  EXPECT_NO_THROW(inj.check("invoke"));
}

/// Answers every command with success and no payload.
class OkTA : public tee::TrustedApp {
 public:
  uint32_t invoke(uint32_t, const std::vector<uint8_t>&,
                  std::vector<uint8_t>&, tee::TaContext&) override {
    return tee::kTeeSuccess;
  }
};

TEST(FaultInjector, DefaultInjectorIgnoresTheEnvironment) {
  // Every TeeContext builds the default injector, so a stray variable in a
  // developer's or a runner's environment must not arm it.
  tee::SecureWorld world;
  world.install("ok", std::make_unique<OkTA>());
  const char* prior = std::getenv("TBNET_FAULT_RATE");
  const std::optional<std::string> saved =
      prior != nullptr ? std::optional<std::string>(prior) : std::nullopt;
  setenv("TBNET_FAULT_RATE", "1", /*overwrite=*/1);
  tee::TeeContext ctx(world);
  if (saved) {
    setenv("TBNET_FAULT_RATE", saved->c_str(), /*overwrite=*/1);
  } else {
    unsetenv("TBNET_FAULT_RATE");
  }

  EXPECT_EQ(ctx.faults().rate(), 0.0);
  EXPECT_NO_THROW({
    tee::TeeSession session = ctx.open_session("ok");
    EXPECT_EQ(session.invoke(1, {}), tee::kTeeSuccess);
  });
  EXPECT_EQ(ctx.faults().faults_injected(), 0);
}

// ------------------------------------------------- engine retry ------------

TEST(DeployedFaults, TransientFaultsAreRetriedToSuccess) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(5);
  const Tensor batch = random_batch(2, rng);
  const Tensor want = deployed.infer_batch(batch);  // fault-free reference

  // Three consecutive transients on the next invoke: attempts 1-3 fault,
  // attempt 4 (the default budget's last) succeeds.
  ctx.faults().script(Kind::kTransient, 3);
  const Tensor got = deployed.infer_batch(batch);
  EXPECT_EQ(deployed.retries(), 3);
  EXPECT_EQ(ctx.faults().faults_injected(), 3);
  EXPECT_TRUE(allclose(got, want, 0.0f, 0.0f));  // bit-identical replay
}

TEST(DeployedFaults, RetryExhaustionThrowsAndEngineRecovers) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(6);
  const Tensor batch = random_batch(1, rng);
  const Tensor want = deployed.infer_batch(batch);

  ctx.faults().script(Kind::kTransient, 4);  // == the engine's retry attempts
  try {
    deployed.infer_batch(batch);
    FAIL() << "expected retry exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("failed after"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ctx.faults().scripted_pending(), 0);
  // Every fault fired before the TA executed, so the engine is not wedged:
  // the next inference starts from its input record and matches
  // bit-for-bit.
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

TEST(DeployedFaults, PermanentFaultFailsFastWithoutRetry) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(7);
  const Tensor batch = random_batch(1, rng);
  deployed.infer_batch(batch);
  const int64_t retries_before = deployed.retries();

  ctx.faults().script(Kind::kPermanent);
  EXPECT_THROW(deployed.infer_batch(batch), tee::PermanentFault);
  EXPECT_EQ(deployed.retries(), retries_before);  // no budget burned
}

TEST(DeployedFaults, SessionOpenIsRetried) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  ctx.faults().script(Kind::kTransient, 2);
  // Construction crosses the "open" boundary: two transients, then success.
  DeployedTBNet deployed(tb, ctx, "tbnet-open-retry");
  EXPECT_EQ(deployed.retries(), 2);
  Rng rng(8);
  EXPECT_EQ(deployed.infer_batch(random_batch(1, rng)).dim(1), 10);

  // As many transients as attempts: the constructor gives up, typed.
  ctx.faults().script(Kind::kTransient, 4);  // == the engine's retry attempts
  try {
    DeployedTBNet failed(tb, ctx, "tbnet-open-exhausted");
    FAIL() << "expected retry exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("failed after"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ctx.faults().scripted_pending(), 0);
  // A permanent fault is never retried.
  ctx.faults().script(Kind::kPermanent);
  EXPECT_THROW(DeployedTBNet(tb, ctx, "tbnet-open-permanent"),
               tee::PermanentFault);
  EXPECT_EQ(ctx.faults().scripted_pending(), 0);
}

TEST(ServerFaults, RetryExhaustionResolvesEngineError) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(9);
  const Tensor batch = random_batch(2, rng);

  InferenceServer::Config scfg;
  scfg.max_batch = 4;
  InferenceServer server(
      [&deployed](const Tensor& nchw) { return deployed.infer_batch(nchw); },
      scfg);

  // A healthy request first (also pins the serving shape).
  EXPECT_EQ(server.submit(slice_image(batch, 0)).get().status, Status::kOk);

  ctx.faults().script(Kind::kTransient, 4);
  InferenceResult r = server.submit(slice_image(batch, 1)).get();
  EXPECT_EQ(r.status, Status::kEngineError);
  EXPECT_NE(r.error.find("failed after"), std::string::npos) << r.error;

  // The worker survived the failing batch and keeps serving.
  EXPECT_EQ(server.submit(slice_image(batch, 0)).get().status, Status::kOk);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.engine_errors, 1);
}

TEST(ServerFaults, OnePercentTransientRateServesEverythingOk) {
  // The acceptance soak in miniature: a deterministic-seed 1% fault rate
  // (plus two scripted transients so the retry path provably runs) must not
  // cost a single request — bounded retry absorbs every transient.
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  ctx.faults().set_rate(0.01);
  ctx.faults().script(Kind::kTransient, 2);

  InferenceServer::Config scfg;
  scfg.max_batch = 8;
  InferenceServer server(
      [&deployed](const Tensor& nchw) { return deployed.infer_batch(nchw); },
      scfg);

  Rng rng(10);
  const int64_t total = 96;
  const Tensor batch = random_batch(total, rng);
  std::vector<std::future<InferenceResult>> futures;
  for (int64_t i = 0; i < total; ++i) {
    futures.push_back(server.submit(slice_image(batch, i)));
  }
  int64_t ok = 0;
  for (auto& f : futures) ok += f.get().ok() ? 1 : 0;
  EXPECT_EQ(ok, total);

  // Fold the engine-side counters the way bench_serving does.
  ServingStats stats = server.stats();
  stats.retries = deployed.retries();
  stats.faults_injected = ctx.faults().faults_injected();
  EXPECT_GE(stats.retries, 2);  // the scripted pair, at minimum
  EXPECT_EQ(stats.retries, stats.faults_injected);  // all recovered
  EXPECT_EQ(stats.engine_errors, 0);
  EXPECT_EQ(stats.requests, total);
}

// ---------------------------------------------- admission & deadlines ------

TEST(Admission, RejectPolicyAccountsExactly) {
  GatedEngine gate;
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  scfg.queue_capacity = 2;
  scfg.admission = AdmissionPolicy::kReject;
  InferenceServer server(gate.fn(), scfg);
  Rng rng(20);

  auto f1 = server.submit(chw(rng));  // claimed by the pinned worker
  gate.wait_started();
  auto f2 = server.submit(chw(rng));  // queued (1/2)
  auto f3 = server.submit(chw(rng));  // queued (2/2) — full
  auto f4 = server.submit(chw(rng));  // rejected, resolves immediately
  auto f5 = server.submit(chw(rng));  // rejected
  ASSERT_EQ(f4.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  InferenceResult r4 = f4.get();
  EXPECT_EQ(r4.status, Status::kRejected);
  EXPECT_NE(r4.error.find("queue full"), std::string::npos) << r4.error;
  EXPECT_EQ(f5.get().status, Status::kRejected);

  gate.release();
  server.drain();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.expired, 0);
  // The accounting identity: every submit resolves through exactly one bin.
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired, 5);
}

TEST(Admission, ShedOldestDropsTheFrontAndKeepsTheFreshest) {
  GatedEngine gate;
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  scfg.queue_capacity = 2;
  scfg.admission = AdmissionPolicy::kShedOldest;
  InferenceServer server(gate.fn(), scfg);
  Rng rng(21);

  auto f1 = server.submit(chw(rng));  // claimed
  gate.wait_started();
  auto f2 = server.submit(chw(rng));  // queued — the oldest
  auto f3 = server.submit(chw(rng));  // queued — full
  auto f4 = server.submit(chw(rng));  // sheds f2, takes its place
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  InferenceResult shed = f2.get();
  EXPECT_EQ(shed.status, Status::kRejected);
  EXPECT_NE(shed.error.find("shed"), std::string::npos) << shed.error;

  gate.release();
  server.drain();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);
  EXPECT_EQ(f4.get().status, Status::kOk);  // the freshest work survived

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired, 4);
}

TEST(Admission, BlockPolicyAppliesBackpressure) {
  GatedEngine gate;
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  scfg.queue_capacity = 1;
  scfg.admission = AdmissionPolicy::kBlock;
  InferenceServer server(gate.fn(), scfg);
  Rng rng(22);

  auto f1 = server.submit(chw(rng));  // claimed
  gate.wait_started();
  auto f2 = server.submit(chw(rng));  // queued — full
  std::atomic<bool> returned{false};
  std::future<InferenceResult> f3;
  std::thread submitter([&] {
    f3 = server.submit(chw(rng));  // must block until the worker frees space
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(returned.load()) << "kBlock submit returned with a full queue";

  gate.release();
  submitter.join();
  EXPECT_TRUE(returned.load());
  server.drain();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.rejected + stats.shed + stats.expired, 0);
}

TEST(Admission, DeadlineExpiresInQueueWithoutRunning) {
  GatedEngine gate;
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  InferenceServer server(gate.fn(), scfg);
  Rng rng(23);

  auto f1 = server.submit(chw(rng));  // claimed; pins the worker
  gate.wait_started();
  // 5 ms deadline, but the worker stays pinned for 30 ms: by claim time the
  // request is dead and must resolve kExpired without an engine call.
  auto f2 = server.submit(chw(rng), std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release();
  server.drain();

  EXPECT_EQ(f1.get().status, Status::kOk);
  InferenceResult r2 = f2.get();
  EXPECT_EQ(r2.status, Status::kExpired);
  EXPECT_GE(r2.queue_s, 0.005);

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1);  // only f1 reached the engine
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(gate.calls.load(), 1);
}

TEST(Admission, ShutdownUnderLoadResolvesEveryFuture) {
  GatedEngine gate;
  InferenceServer::Config scfg;
  scfg.max_batch = 1;
  scfg.queue_capacity = 1;
  scfg.admission = AdmissionPolicy::kBlock;
  InferenceServer server(gate.fn(), scfg);
  Rng rng(24);

  auto f1 = server.submit(chw(rng));  // claimed, pinned inside the engine
  gate.wait_started();
  auto f2 = server.submit(chw(rng));  // queued — full
  std::atomic<bool> returned{false};
  std::future<InferenceResult> f3;
  std::thread submitter([&] {
    f3 = server.submit(chw(rng));  // blocks on admission
    returned.store(true);
  });
  // Give the submitter time to park on space_cv_ (the queue stays full while
  // the worker is pinned, so `returned` can only flip once shutdown fires).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(returned.load());
  std::thread closer([&] { server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();  // let the pinned worker finish so shutdown can join
  closer.join();
  submitter.join();

  // Shutdown's contract: the claimed and queued requests are served, the
  // submitter blocked on admission resolves kRejected, nobody hangs.
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
  InferenceResult r3 = f3.get();
  EXPECT_EQ(r3.status, Status::kRejected);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.rejected, 1);
}

TEST(Admission, ConcurrentOverloadNeverLosesAFuture) {
  // Stress the bookkeeping: many submitters against a tiny shedding queue.
  // Whatever mix of Ok/Rejected results, every future must resolve and the
  // accounting identity must hold exactly.
  InferenceServer::Config scfg;
  scfg.max_batch = 4;
  scfg.queue_capacity = 4;
  scfg.admission = AdmissionPolicy::kShedOldest;
  InferenceServer server(
      [](const Tensor& nchw) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        return Tensor(Shape{nchw.dim(0), 2});
      },
      scfg);

  const int threads = 4;
  const int per_thread = 50;
  std::vector<std::vector<std::future<InferenceResult>>> futures(threads);
  {
    std::vector<std::thread> submitters;
    for (int t = 0; t < threads; ++t) {
      submitters.emplace_back([&, t] {
        Rng rng(100 + t);
        for (int i = 0; i < per_thread; ++i) {
          futures[static_cast<size_t>(t)].push_back(server.submit(chw(rng)));
        }
      });
    }
    for (auto& th : submitters) th.join();
  }
  server.drain();
  int64_t ok = 0, failed = 0;
  for (auto& per : futures) {
    for (auto& f : per) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      InferenceResult r = f.get();
      ok += r.ok() ? 1 : 0;
      failed += r.ok() ? 0 : 1;
    }
  }
  const int64_t submits = static_cast<int64_t>(threads) * per_thread;
  EXPECT_EQ(ok + failed, submits);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired,
            submits);
  EXPECT_EQ(stats.requests - stats.engine_errors, ok);
  EXPECT_EQ(stats.rejected + stats.shed + stats.expired + stats.engine_errors,
            failed);
}

// ---------------------------------------- per-site / Nth-crossing scripts --

TEST(FaultInjector, PerSiteNthCrossingTargeting) {
  FaultInjector inj(3, 0.0);
  // Fire on the 2nd future crossing of "invoke"; "transfer" crossings in
  // between must not consume it.
  inj.script_at(Kind::kTransient, "invoke", 2);
  EXPECT_EQ(inj.scripted_pending(), 1);
  EXPECT_NO_THROW(inj.check("invoke"));    // invoke crossing 1
  EXPECT_NO_THROW(inj.check("transfer"));  // other site, no effect
  EXPECT_THROW(inj.check("invoke"), tee::TransientFault);  // crossing 2
  EXPECT_EQ(inj.scripted_pending(), 0);
  EXPECT_NO_THROW(inj.check("invoke"));
  EXPECT_EQ(inj.crossings("invoke"), 3);
  EXPECT_EQ(inj.crossings("transfer"), 1);

  // Targeted entries outrank the FIFO queue on their crossing, and are
  // relative to the CURRENT crossing count (nth = 1 means the next one).
  inj.script_at(Kind::kPermanent, "open");
  inj.script(Kind::kTransient);
  EXPECT_THROW(inj.check("open"), tee::PermanentFault);
  EXPECT_THROW(inj.check("open"), tee::TransientFault);  // FIFO still queued
  inj.script_at(Kind::kTransient, "open", 5);
  inj.clear_script();
  EXPECT_EQ(inj.scripted_pending(), 0);
}

TEST(FaultInjector, CorruptionFlipsPayloadBitsDeterministically) {
  FaultInjector inj(11, 0.0);
  const std::vector<uint8_t> payload(64, 0xAB);
  // Clean crossing: nullopt, nothing counted.
  EXPECT_FALSE(inj.check_transfer("transfer", payload).has_value());
  inj.script_at(Kind::kCorruption, "transfer", 1);
  auto damaged = inj.check_transfer("transfer", payload);
  ASSERT_TRUE(damaged.has_value());
  EXPECT_EQ(damaged->size(), payload.size());
  EXPECT_NE(*damaged, payload);  // 1-8 bit flips landed somewhere
  EXPECT_EQ(inj.corruptions_injected(), 1);
  EXPECT_EQ(inj.faults_injected(), 1);

  // Same seed, same script -> identical damage (replayable chaos).
  FaultInjector twin(11, 0.0);
  EXPECT_FALSE(twin.check_transfer("transfer", payload).has_value());
  twin.script_at(Kind::kCorruption, "transfer", 1);
  EXPECT_EQ(*twin.check_transfer("transfer", payload), *damaged);

  // A corruption outcome at a payload-less crossing (or an empty payload)
  // is consumed without effect — there is nothing to flip.
  inj.script(Kind::kCorruption);
  EXPECT_NO_THROW(inj.check("invoke"));
  inj.script(Kind::kCorruption);
  EXPECT_FALSE(inj.check_transfer("transfer", {}).has_value());
}

// ------------------------------------------------ model-image integrity ----

TEST(Serialize, V4RoundTripsAndRejectsCorruptionTyped) {
  nn::Sequential victim = models::build_victim(tiny_vgg_cfg());
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, victim);

  // Round trip: load and re-save reproduces the exact bytes (checksums and
  // framing included).
  ByteReader r(bytes);
  std::unique_ptr<nn::Layer> loaded = nn::load_model(r);
  std::vector<uint8_t> again;
  nn::save_model(again, *loaded);
  EXPECT_EQ(again, bytes);

  // One flipped bit mid-payload -> typed IntegrityError at load (the same
  // path DeployedTBNet's TA-image deploy takes), never wrong weights.
  std::vector<uint8_t> corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  ByteReader bad(corrupt);
  EXPECT_THROW(nn::load_model(bad), nn::IntegrityError);

  // Damage in the header checksum itself is also typed.
  std::vector<uint8_t> bad_header = bytes;
  bad_header[9] ^= 0x01;  // inside the u32 header CRC at offset 8
  ByteReader bad2(bad_header);
  EXPECT_THROW(nn::load_model(bad2), nn::IntegrityError);
}

TEST(DeployedFaults, CorruptedTransferSurfacesIntegrityFault) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-corruption");
  Rng rng(21);
  const Tensor batch = random_batch(1, rng);
  const Tensor want = deployed.infer_batch(batch);

  // Corrupt the next payload transfer: the frame checksum catches the
  // flipped bits and the invoke throws typed — no retry (the damage is not
  // transient), and definitely no wrong logits.
  ctx.faults().script_at(Kind::kCorruption, "transfer", 1);
  EXPECT_THROW(deployed.infer_batch(batch), tee::IntegrityFault);
  EXPECT_EQ(ctx.faults().corruptions_injected(), 1);

  // The engine (and its TA) survive; a clean call is bit-identical.
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

// ------------------------------------------ faults mid-batch (run-ahead) --
//
// The REE thread runs ahead while the caller is inside an invoke, so a
// fault there lands while later stages are being computed or are already
// packed. Readiness picks how many invokes a batch takes, so these tests
// read the count from the world_switches() delta and repeat the batch until
// the scripted fault has been consumed. A batch of max_batch images runs one
// stage per invoke, so "a later invoke" exists in the same batch.

/// Invokes since `switches_before`: each switches in once, and the last one
/// of the batch switches back out with the logits.
int64_t invokes_since(const DeployedTBNet& engine, int64_t switches_before) {
  return engine.world_switches() - switches_before - 1;
}

/// Runs `batch` until it throws a `Fault`, at most 8 times; every run that
/// does not must match `want` bitwise. Returns whether one was thrown.
template <typename Fault>
bool fails_with(DeployedTBNet& engine, const Tensor& batch,
                const Tensor& want) {
  for (int round = 0; round < 8; ++round) {
    try {
      EXPECT_TRUE(allclose(engine.infer_batch(batch), want, 0.0f, 0.0f));
    } catch (const Fault&) {
      return true;
    }
  }
  return false;
}

TEST(DeployedFaults, MidBatchTransientIsRetriedBitIdentically) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet::Options opt;
  opt.max_batch = 4;
  DeployedTBNet deployed(tb, ctx, "tbnet-midbatch", opt);
  Rng rng(41);
  const Tensor batch = random_batch(4, rng);
  const int64_t before = deployed.world_switches();
  const Tensor want = deployed.infer_batch(batch);
  const int64_t invokes = invokes_since(deployed, before);
  ASSERT_GE(invokes, 2);
  // The first invoke, a middle one, and the last (the one that releases).
  for (const int64_t nth : {int64_t{1}, 1 + invokes / 2, invokes}) {
    const int64_t retries = deployed.retries();
    ctx.faults().script_at(Kind::kTransient, "invoke", nth);
    for (int round = 0; round < 8 && ctx.faults().scripted_pending() > 0;
         ++round) {
      EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f))
          << "transient at invoke " << nth;
    }
    EXPECT_EQ(ctx.faults().scripted_pending(), 0);
    EXPECT_EQ(deployed.retries(), retries + 1) << "transient at invoke " << nth;
  }
}

TEST(DeployedFaults, MidBatchPermanentAndIntegrityFaultsKeepTheirType) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet::Options opt;
  opt.max_batch = 4;
  DeployedTBNet deployed(tb, ctx, "tbnet-midbatch-fatal", opt);
  tee::SecureWorld fresh_world;
  tee::TeeContext fresh_ctx(fresh_world);
  DeployedTBNet fresh(tb, fresh_ctx);
  Rng rng(42);
  const Tensor batch = random_batch(4, rng);
  const Tensor want = fresh.infer_batch(batch);
  const int64_t before = deployed.world_switches();
  ASSERT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
  const int64_t invokes = invokes_since(deployed, before);
  ASSERT_GE(invokes, 2);

  for (const int64_t nth : {int64_t{1}, 1 + invokes / 2}) {
    ctx.faults().script_at(Kind::kPermanent, "invoke", nth);
    EXPECT_TRUE(fails_with<tee::PermanentFault>(deployed, batch, want))
        << "permanent at invoke " << nth;
    deployed.reopen();
    EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));

    ctx.faults().script_at(Kind::kCorruption, "transfer", nth);
    EXPECT_TRUE(fails_with<tee::IntegrityFault>(deployed, batch, want))
        << "corruption at invoke " << nth;
    deployed.reopen();
    EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
  }
  EXPECT_EQ(deployed.reopens(), 4);
  EXPECT_EQ(ctx.faults().scripted_pending(), 0);
}

TEST(DeployedFaults, FailedBatchReturnsOnlyOnceTheReeThreadIsIdle) {
  // The first invoke faults while the REE thread runs the next stages of a
  // 16-image batch ahead of it. Each batch below is a temporary that dies
  // as soon as infer_batch throws, so returning before the REE thread lets
  // go of it would be a use-after-free (and a race) for the sanitizer legs.
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-idle-on-failure");
  Rng rng(43);
  const Tensor batch = random_batch(16, rng);
  const Tensor want = deployed.infer_batch(batch);
  for (int round = 0; round < 8; ++round) {
    ctx.faults().script_at(Kind::kPermanent, "invoke", 1);
    EXPECT_THROW(deployed.infer_batch(random_batch(16, rng)),
                 tee::PermanentFault);
  }
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

// ------------------------------------------------------ session recovery --

TEST(DeployedFaults, ReopenRecoversAfterPermanentLoss) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-reopen");
  Rng rng(22);
  const Tensor batch = random_batch(2, rng);
  const Tensor want = deployed.infer_batch(batch);

  // Permanent session loss: every boundary faults permanently.
  ctx.faults().set_rate(1.0, 1.0);
  EXPECT_THROW(deployed.infer_batch(batch), tee::PermanentFault);

  // Recovery: re-deploy the retained TA image (re-verifying its v4
  // checksums), re-open the session, and prove it with a canary inference.
  ctx.faults().set_rate(0.0);
  deployed.reopen(batch);
  EXPECT_EQ(deployed.reopens(), 1);
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

// Regression test for the locking pass that put the engine/TEE
// observability counters behind mutexes (DeployedTBNet retries/reopens,
// TeeSession world_switches / simulated overhead, OneWayChannel byte
// counters, SecureMemoryPool live/peak): a monitor thread polls them WHILE
// the engine runs fault-sprinkled batches on this thread — exactly what
// examples/serving_supervision.cpp and bench_serving do when folding engine
// counters into ServingStats. Before the fix these reads raced the writes
// (the TSan CI leg runs this suite); the monotonicity assertions also pin
// that each counter stays coherent under concurrent access. session_ itself
// is deliberately unguarded (reopen() is externally synchronized by the
// supervision health protocol), so the monitor is stopped before reopen()
// runs below.
TEST(DeployedFaults, CounterPollingWhileServingIsRaceFree) {
  core::TwoBranchModel tb = tiny_two_branch();
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-counter-poll");
  Rng rng(31);
  const Tensor batch = random_batch(2, rng);
  deployed.infer_batch(batch);  // warm: panels packed, TA shapes pinned

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    int64_t last_switches = 0, last_retries = 0, last_bytes = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int64_t sw = deployed.world_switches();
      const int64_t rt = deployed.retries();
      const int64_t by = ctx.channel().total_bytes();
      EXPECT_GE(sw, last_switches);
      EXPECT_GE(rt, last_retries);
      EXPECT_GE(by, last_bytes);
      EXPECT_GE(world.memory().peak_bytes(), world.memory().live_bytes());
      EXPECT_GE(deployed.reopens(), 0);
      last_switches = sw;
      last_retries = rt;
      last_bytes = by;
      std::this_thread::yield();
    }
  });
  // A transient sprinkle exercises the retry counter while serving.
  ctx.faults().set_rate(0.05);
  for (int i = 0; i < 30; ++i) {
    try {
      deployed.infer_batch(batch);
    } catch (const std::runtime_error&) {
      // Retry exhaustion needs 4 consecutive 5% draws (~6e-6 per invoke);
      // tolerated here, the subject is the concurrent counter reads.
    }
  }
  ctx.faults().set_rate(0.0);
  done.store(true, std::memory_order_release);
  monitor.join();

  EXPECT_GT(deployed.world_switches(), 0);
  EXPECT_GT(ctx.channel().total_bytes(), 0);
  // With the monitor stopped, the supervisor-style recovery path still
  // counts correctly through the same mutex.
  ctx.faults().script(Kind::kPermanent);
  EXPECT_THROW(deployed.infer_batch(batch), tee::PermanentFault);
  deployed.reopen(batch);
  EXPECT_EQ(deployed.reopens(), 1);
}

// ------------------------------------------------------------ supervision --

TEST(Supervision, QuarantineRequeuesRidersAndDrainStaysExact) {
  // Deterministic kill: worker 0's engine loses its session permanently on
  // every call, worker 1 is healthy (gated so queue states are race-free).
  // Whatever order the workers claim in, both requests must resolve Ok —
  // the failing worker's rider is re-queued, not failed — and drain() must
  // account for the bounced rider exactly.
  GatedEngine gate;
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back([](const Tensor&) -> Tensor {
    throw tee::PermanentFault("secure session lost");
  });
  engines.push_back(gate.fn());
  InferenceServer::Config scfg;
  scfg.max_batch = 1;  // one rider per batch keeps the interleaving simple
  InferenceServer server(std::move(engines), scfg);

  Rng rng(31);
  auto f1 = server.submit(chw(rng));
  auto f2 = server.submit(chw(rng));
  // Worker 0 dies on whichever request it claims (no RecoverFn -> Dead);
  // that request bounces back to the queue for worker 1.
  while (server.stats().quarantines < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  gate.release();
  server.drain();

  ASSERT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f2.get().status, Status::kOk);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.quarantines, 1);
  EXPECT_EQ(stats.requeued, 1);
  EXPECT_EQ(stats.engine_errors, 0);  // the failure was absorbed by requeue
  EXPECT_EQ(stats.requests, 2);       // identity: 2 submits, 2 served
  EXPECT_EQ(stats.per_worker[0].health, WorkerHealth::kDead);
  EXPECT_EQ(stats.per_worker[0].quarantines, 1);
  EXPECT_EQ(stats.per_worker[1].health, WorkerHealth::kHealthy);
}

TEST(Supervision, ConsecutiveFailuresTripBreakerThenFailFast) {
  // K consecutive kEngineError batches trip the breaker; with no RecoverFn
  // the lone worker dies and later submits resolve kRejected immediately
  // instead of feeding a dead engine.
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back(
      [](const Tensor&) -> Tensor { throw std::runtime_error("flaky"); });
  InferenceServer::Config scfg;
  scfg.breaker_threshold = 2;
  InferenceServer server(std::move(engines), scfg);

  Rng rng(32);
  // Strike 1: below threshold, rider resolves kEngineError, worker serves on.
  EXPECT_EQ(server.submit(chw(rng)).get().status, Status::kEngineError);
  // Strike 2 trips the breaker. The rider is NOT requeued — with the last
  // worker dead there is nobody to bounce it to — so it also resolves typed.
  EXPECT_EQ(server.submit(chw(rng)).get().status, Status::kEngineError);
  // Fail-fast: no live workers left.
  InferenceResult r = server.submit(chw(rng)).get();
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_NE(r.error.find("no live workers"), std::string::npos) << r.error;

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.quarantines, 1);
  EXPECT_EQ(stats.requeued, 0);
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.engine_errors, 2);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.per_worker[0].health, WorkerHealth::kDead);
  // Identity: 3 submits = 2 served + 1 rejected.
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired, 3);
}

TEST(Supervision, RecoveryLifecycleReAdmitsWorker) {
  // Full kill -> quarantine -> (failed recovery, backoff) -> recover ->
  // re-admit on a single worker. The rider submitted while the worker was
  // broken is re-queued to the worker itself and served after recovery —
  // zero lost futures, no kEngineError ever surfaced.
  std::atomic<bool> broken{false};
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back([&broken](const Tensor& nchw) -> Tensor {
    if (broken.load()) throw tee::PermanentFault("secure session lost");
    return Tensor(Shape{nchw.dim(0), 2});
  });
  std::vector<InferenceServer::RecoverFn> recovery;
  recovery.push_back([&broken] {
    if (broken.load()) throw std::runtime_error("canary failed: still broken");
  });
  InferenceServer::Config scfg;
  scfg.breaker_threshold = 1;
  scfg.recovery_backoff = std::chrono::microseconds(300);
  scfg.recovery_max_backoff = std::chrono::microseconds(3000);
  InferenceServer server(std::move(engines), std::move(recovery), scfg);

  Rng rng(33);
  EXPECT_EQ(server.submit(chw(rng)).get().status, Status::kOk);

  broken.store(true);
  auto bounced = server.submit(chw(rng));
  // The supervisor must attempt (and fail) recovery while the engine stays
  // broken: quarantine observed, at least one canary failure, no recovery.
  while (server.stats().canary_failures < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_EQ(server.stats().quarantines, 1);
  EXPECT_EQ(server.stats().recoveries, 0);

  broken.store(false);  // the next recovery attempt's canary passes
  InferenceResult r = bounced.get();
  EXPECT_EQ(r.status, Status::kOk);

  server.drain();
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.requeued, 1);
  EXPECT_GE(stats.canary_failures, 1);
  EXPECT_EQ(stats.engine_errors, 0);
  EXPECT_EQ(stats.per_worker[0].health, WorkerHealth::kHealthy);
  EXPECT_EQ(stats.per_worker[0].recoveries, 1);

  // The re-admitted worker serves new traffic.
  EXPECT_EQ(server.submit(chw(rng)).get().status, Status::kOk);
}

TEST(Supervision, WatchdogOverrunTripsBreakerEvenOnSuccess) {
  // A batch that overruns watchdog_timeout marks its worker suspect even
  // though the result was correct: the rider still gets its Ok, but the
  // worker cycles through quarantine + recovery before serving again.
  std::atomic<int> calls{0};
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back([&calls](const Tensor& nchw) {
    if (calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return Tensor(Shape{nchw.dim(0), 2});
  });
  std::vector<InferenceServer::RecoverFn> recovery;
  recovery.push_back([] {});  // trivially recovers
  InferenceServer::Config scfg;
  scfg.breaker_threshold = 1;
  scfg.watchdog_timeout = std::chrono::milliseconds(1);
  scfg.recovery_backoff = std::chrono::microseconds(300);
  InferenceServer server(std::move(engines), std::move(recovery), scfg);

  Rng rng(34);
  InferenceResult slow = server.submit(chw(rng)).get();
  EXPECT_EQ(slow.status, Status::kOk);  // success is still delivered
  while (server.stats().recoveries < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const ServingStats mid = server.stats();
  EXPECT_EQ(mid.watchdog_trips, 1);
  EXPECT_EQ(mid.quarantines, 1);
  EXPECT_EQ(mid.requeued, 0);  // nothing failed, nothing bounced
  // Re-admitted and fast again.
  EXPECT_EQ(server.submit(chw(rng)).get().status, Status::kOk);
  EXPECT_EQ(server.stats().watchdog_trips, 1);
}

TEST(Supervision, IntegrityFailureSurfacesTypedStatus) {
  // An engine tripping an integrity check resolves kIntegrityError (first
  // strike, regardless of threshold) — corrupted data is never served.
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back([](const Tensor&) -> Tensor {
    throw tee::IntegrityFault("transfer frame checksum mismatch");
  });
  InferenceServer::Config scfg;
  scfg.breaker_threshold = 100;  // integrity must trip on strike one anyway
  InferenceServer server(std::move(engines), scfg);

  Rng rng(35);
  InferenceResult r = server.submit(chw(rng)).get();
  EXPECT_EQ(r.status, Status::kIntegrityError);
  EXPECT_FALSE(r.ok());
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.integrity_errors, 1);
  EXPECT_EQ(stats.engine_errors, 0);
  EXPECT_EQ(stats.quarantines, 1);
  EXPECT_EQ(stats.per_worker[0].health, WorkerHealth::kDead);
}

TEST(Supervision, ChaosIdentityUnderConcurrentLoadAndRecovery) {
  // The lifecycle under real concurrency (TSan food): 4 submitters hammer a
  // 2-worker shedding server while worker 0 is broken mid-run and then
  // recovers. Every future resolves typed and the accounting identity holds
  // exactly, requeues and recoveries included.
  std::atomic<bool> broken{false};
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back([&broken](const Tensor& nchw) -> Tensor {
    if (broken.load()) throw tee::PermanentFault("secure session lost");
    return Tensor(Shape{nchw.dim(0), 2});
  });
  engines.push_back([](const Tensor& nchw) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Tensor(Shape{nchw.dim(0), 2});
  });
  std::vector<InferenceServer::RecoverFn> recovery;
  recovery.push_back([&broken] {
    if (broken.load()) throw std::runtime_error("still broken");
  });
  recovery.push_back(nullptr);  // worker 1 is unrecoverable (and never trips)
  InferenceServer::Config scfg;
  scfg.max_batch = 4;
  scfg.queue_capacity = 16;
  scfg.admission = AdmissionPolicy::kShedOldest;
  scfg.breaker_threshold = 1;
  scfg.recovery_backoff = std::chrono::microseconds(300);
  scfg.recovery_max_backoff = std::chrono::microseconds(2000);
  InferenceServer server(std::move(engines), std::move(recovery), scfg);

  const int threads = 4;
  const int per_thread = 50;
  // Worker 0 is broken from the first batch it claims: the trip is
  // guaranteed, not a race against the submit burst. It is healed from the
  // main thread once the quarantine has been observed, so the run also
  // covers at least one failed recovery attempt or the recovery itself.
  broken.store(true);
  std::vector<std::vector<std::future<InferenceResult>>> futures(threads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(300 + t);
      for (int i = 0; i < per_thread; ++i) {
        futures[static_cast<size_t>(t)].push_back(server.submit(chw(rng)));
      }
    });
  }
  while (server.stats().quarantines < 1) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  broken.store(false);
  for (auto& th : submitters) th.join();
  server.drain();

  int64_t ok = 0, rejected = 0, expired = 0, engine_err = 0, integrity = 0;
  for (auto& per : futures) {
    for (auto& f : per) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const InferenceResult r = f.get();
      switch (r.status) {
        case Status::kOk: ++ok; break;
        case Status::kRejected: ++rejected; break;
        case Status::kExpired: ++expired; break;
        case Status::kEngineError: ++engine_err; break;
        case Status::kIntegrityError: ++integrity; break;
      }
    }
  }
  const int64_t submits = static_cast<int64_t>(threads) * per_thread;
  const ServingStats stats = server.stats();
  // PR-7 identity, now with bounced riders in play: a requeued request still
  // resolves (and is counted) exactly once.
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired,
            submits);
  EXPECT_EQ(stats.rejected + stats.shed, rejected);
  EXPECT_EQ(stats.expired, expired);
  EXPECT_EQ(stats.engine_errors, engine_err);
  EXPECT_EQ(stats.integrity_errors, integrity);
  EXPECT_EQ(stats.requests - stats.engine_errors - stats.integrity_errors, ok);
  EXPECT_GE(stats.quarantines, 1);  // worker 0 tripped at least once
}

TEST(Supervision, StatusAndHealthNamesAreExhaustive) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kRejected), "rejected");
  EXPECT_STREQ(status_name(Status::kExpired), "expired");
  EXPECT_STREQ(status_name(Status::kEngineError), "engine_error");
  EXPECT_STREQ(status_name(Status::kIntegrityError), "integrity_error");
  EXPECT_STREQ(worker_health_name(WorkerHealth::kHealthy), "healthy");
  EXPECT_STREQ(worker_health_name(WorkerHealth::kQuarantined), "quarantined");
  EXPECT_STREQ(worker_health_name(WorkerHealth::kRecovering), "recovering");
  EXPECT_STREQ(worker_health_name(WorkerHealth::kDead), "dead");
  EXPECT_STREQ(worker_health_name(WorkerHealth::kParked), "parked");
}

}  // namespace
}  // namespace tbnet::runtime
