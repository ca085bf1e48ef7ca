// Tests for PR 10's elastic serving: the supervisor-hosted autoscaler
// (scale-up under sustained queue depth, cooldown hysteresis, min/max
// bounds, drain exactness across park/unpark) and the FIFO queue it serves
// from (a released worker claims in submission order, a requeued rider goes
// back to the front, the accounting identity holds across scale-up). All
// scenarios use synthetic engines so they are fast and TSan-clean; the
// real-model elastic soak lives in bench_serving --soak-seconds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/server.h"
#include "tensor/tensor.h"

namespace tbnet::runtime {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

/// One-pixel image whose value identifies the request, so an engine can
/// record service order.
Tensor tagged_image(float id) {
  Tensor t(Shape{1, 1, 1});
  t.data()[0] = id;
  return t;
}

/// Minimal valid logits for a batch of n.
Tensor fake_logits(int64_t n) {
  Tensor out(Shape{n, 2});
  for (int64_t i = 0; i < out.numel(); ++i) out.data()[i] = 0.0f;
  return out;
}

/// Engine factory whose engines sleep `work` per batch — long enough for
/// the queue to stay deep across autoscaler ticks — and count how many
/// slots were actually built.
InferenceServer::EngineFactory slow_factory(std::atomic<int>& builds,
                                            milliseconds work) {
  return [&builds, work](int /*worker*/) {
    ++builds;
    InferenceServer::BatchFn engine = [work](const Tensor& nchw) {
      std::this_thread::sleep_for(work);
      return fake_logits(nchw.dim(0));
    };
    return std::make_pair(std::move(engine), InferenceServer::RecoverFn{});
  };
}

/// Polls `pred` until true or the deadline; returns its final value.
template <typename Pred>
bool eventually(Pred pred, milliseconds budget = milliseconds(5000)) {
  const auto until = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

int healthy_workers(const ServingStats& stats) {
  int n = 0;
  for (const auto& w : stats.per_worker) {
    if (w.health == WorkerHealth::kHealthy) ++n;
  }
  return n;
}

int parked_workers(const ServingStats& stats) {
  int n = 0;
  for (const auto& w : stats.per_worker) {
    if (w.health == WorkerHealth::kParked) ++n;
  }
  return n;
}

TEST(Autoscaler, ScalesUpUnderSustainedQueueDepth) {
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 1;
  cfg.min_workers = 1;
  cfg.max_workers = 3;
  cfg.autoscale_interval = microseconds(2000);
  cfg.autoscale_cooldown = microseconds(0);  // every tick may act
  InferenceServer server(slow_factory(builds, milliseconds(5)), cfg);
  EXPECT_EQ(builds.load(), 1);  // lazily built: only min_workers at start
  EXPECT_EQ(server.workers(), 3);  // but all slots exist
  {
    const ServingStats s0 = server.stats();
    EXPECT_EQ(healthy_workers(s0), 1);
    EXPECT_EQ(parked_workers(s0), 2);
    EXPECT_EQ(s0.workers_high_water, 1);
  }

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 40; ++i) futs.push_back(server.submit(tagged_image(1)));
  ASSERT_TRUE(eventually(
      [&] { return server.stats().scale_ups >= 1; }))
      << "autoscaler never scaled up under a 40-deep queue";
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);

  const ServingStats stats = server.stats();
  EXPECT_GE(stats.scale_ups, 1);
  EXPECT_GE(stats.workers_high_water, 2);
  EXPECT_LE(stats.workers_high_water, 3);
  EXPECT_GE(builds.load(), 2);  // the spawned slot's engine was built
  EXPECT_LE(builds.load(), 3);
  EXPECT_EQ(stats.requests, 40);
}

TEST(Autoscaler, CooldownPreventsFlapping) {
  // A cooldown far longer than the test means the policy may act exactly
  // once no matter how long overload persists — hysteresis, not a rate
  // limiter that eventually lets a burst through.
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 1;
  cfg.min_workers = 1;
  cfg.max_workers = 4;
  cfg.autoscale_interval = microseconds(1000);
  cfg.autoscale_cooldown = std::chrono::minutes(10);
  InferenceServer server(slow_factory(builds, milliseconds(4)), cfg);

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 50; ++i) futs.push_back(server.submit(tagged_image(1)));
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);

  const ServingStats stats = server.stats();
  EXPECT_LE(stats.scale_ups + stats.scale_downs, 1)
      << "scaled " << stats.scale_ups << " up / " << stats.scale_downs
      << " down inside one cooldown window";
  EXPECT_LE(stats.workers_high_water, 2);
}

TEST(Autoscaler, RespectsMinAndMaxBounds) {
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 1;
  cfg.min_workers = 2;
  cfg.max_workers = 3;
  cfg.autoscale_interval = microseconds(1000);
  cfg.autoscale_cooldown = microseconds(0);
  cfg.scale_down_utilization = 1.0;  // any idle tick may park
  InferenceServer server(slow_factory(builds, milliseconds(4)), cfg);
  EXPECT_EQ(builds.load(), 2);  // min_workers built eagerly

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 60; ++i) futs.push_back(server.submit(tagged_image(1)));
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);

  // Upper bound: slots beyond max_workers do not exist to activate.
  EXPECT_LE(server.stats().workers_high_water, 3);
  EXPECT_LE(builds.load(), 3);

  // Lower bound: now idle with an always-under-threshold utilization, the
  // pool shrinks — but never below min_workers, no matter how many ticks.
  ASSERT_TRUE(eventually([&] { return server.stats().scale_downs >= 1; }))
      << "idle pool never scaled down";
  std::this_thread::sleep_for(milliseconds(50));  // many more idle ticks
  const ServingStats stats = server.stats();
  EXPECT_EQ(healthy_workers(stats), 2);
  EXPECT_GE(stats.scale_downs, 1);
}

TEST(Autoscaler, ScaleDownKeepsDrainExact) {
  // A full load cycle (spike -> scale-up -> idle -> scale-down -> spike)
  // must strand nothing: every future resolves and the PR-7 accounting
  // identity holds with the pool size changing underneath the queue.
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 2;
  cfg.min_workers = 1;
  cfg.max_workers = 3;
  cfg.autoscale_interval = microseconds(1000);
  cfg.autoscale_cooldown = microseconds(0);
  cfg.scale_down_utilization = 1.0;
  InferenceServer server(slow_factory(builds, milliseconds(3)), cfg);

  int64_t submitted = 0;
  std::vector<std::future<InferenceResult>> futs;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 30; ++i) {
      futs.push_back(server.submit(tagged_image(1)));
      ++submitted;
    }
    // Let the burst drain and the idle autoscaler park workers again.
    eventually([&] { return server.stats().scale_downs > 0; },
               milliseconds(500));
  }
  server.drain();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, Status::kOk);
  }
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired,
            submitted);
  EXPECT_EQ(stats.requests, submitted);  // nothing was dropped in this test
}

TEST(Autoscaler, ParkedMajorityNeverSwallowsWakeups) {
  // Steady state for an elastic server is most slots Parked. Every queued
  // request must still reach the one Healthy worker even though seven
  // non-claimable workers are blocked inside the same server — the lost-
  // wakeup scenario where a queue notification lands on a parked waiter
  // (which cannot claim) while the only claimable worker sleeps on, leaving
  // the request unserved with no further notification ever coming.
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 4;
  cfg.min_workers = 1;
  cfg.max_workers = 8;
  // No tick fires during the test: the seven parked workers stay parked and
  // one-request backlogs never trip the scale-up policy anyway.
  cfg.autoscale_interval = std::chrono::minutes(10);
  InferenceServer server(slow_factory(builds, milliseconds(0)), cfg);

  for (int i = 0; i < 50; ++i) {
    auto fut = server.submit(tagged_image(1));
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)),
              std::future_status::ready)
        << "request " << i << " was never claimed (lost wakeup)";
    EXPECT_EQ(fut.get().status, Status::kOk);
  }
  EXPECT_EQ(builds.load(), 1);  // the parked slots never activated
}

/// Single-worker fixed-pool server whose engine blocks its FIRST batch on a
/// gate; everything submitted while it is blocked queues up, which makes
/// ordering at batch formation directly observable.
struct GatedServer {
  std::mutex order_mu;
  std::vector<float> order;  // ids in service order, first (gate) batch too
  std::atomic<bool> entered{false};
  std::promise<void> gate;
  std::shared_future<void> released{gate.get_future().share()};
  std::unique_ptr<InferenceServer> server;

  explicit GatedServer(InferenceServer::Config cfg) {
    InferenceServer::BatchFn engine = [this](const Tensor& nchw) {
      const bool first = !entered.exchange(true);
      if (first) released.wait();
      {
        std::lock_guard<std::mutex> lock(order_mu);
        for (int64_t i = 0; i < nchw.dim(0); ++i) {
          order.push_back(nchw.data()[i]);
        }
      }
      return fake_logits(nchw.dim(0));
    };
    server =
        std::make_unique<InferenceServer>(std::move(engine), std::move(cfg));
  }

  /// Occupies the worker and waits until it is inside the engine.
  std::future<InferenceResult> occupy() {
    auto fut = server->submit(tagged_image(0));
    while (!entered.load()) std::this_thread::yield();
    return fut;
  }

  std::vector<float> service_order() {
    std::lock_guard<std::mutex> lock(order_mu);
    return order;
  }
};

TEST(FifoQueue, ReleasedWorkerClaimsPartialBatchInSubmissionOrder) {
  // The moment the gate frees the worker it claims everything queued, a
  // partial batch, instead of idling for company, in submission order.
  InferenceServer::Config cfg;
  cfg.max_batch = 3;  // strictly more than what queues up: a partial batch
  GatedServer gs(cfg);
  auto blocker = gs.occupy();

  auto first = gs.server->submit(tagged_image(1));
  auto second = gs.server->submit(tagged_image(2));
  const auto released = std::chrono::steady_clock::now();
  gs.gate.set_value();

  EXPECT_EQ(blocker.get().status, Status::kOk);
  EXPECT_EQ(first.get().status, Status::kOk);
  EXPECT_EQ(second.get().status, Status::kOk);
  const double after_release = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - released)
                                   .count();
  EXPECT_LT(after_release, 0.1)
      << "the released worker idled before claiming a partial batch";
  // One batch, in the order the requests arrived.
  EXPECT_EQ(gs.service_order(), (std::vector<float>{0, 1, 2}));
}

TEST(FifoQueue, RequeuedRiderIsServedBeforeLaterArrivals) {
  // A rider bounced off a tripped worker goes back to the queue FRONT: it
  // arrived before anything submitted while its batch failed, so after
  // recovery it is served first. No deadline is configured, so arrival
  // order alone decides; a re-queue to the back would serve {2, 1}.
  std::mutex order_mu;
  std::vector<float> order;
  std::promise<void> in_failing_batch;
  std::promise<void> release_failing_batch;
  std::shared_future<void> release{release_failing_batch.get_future().share()};
  std::atomic<bool> failed_once{false};

  InferenceServer::BatchFn engine = [&](const Tensor& nchw) -> Tensor {
    if (nchw.data()[0] == 1.0f && !failed_once.exchange(true)) {
      in_failing_batch.set_value();
      release.wait();
      throw std::runtime_error("injected trip");
    }
    {
      std::lock_guard<std::mutex> lock(order_mu);
      for (int64_t i = 0; i < nchw.dim(0); ++i) {
        order.push_back(nchw.data()[i]);
      }
    }
    return fake_logits(nchw.dim(0));
  };
  std::vector<InferenceServer::BatchFn> engines;
  engines.push_back(std::move(engine));
  std::vector<InferenceServer::RecoverFn> recovery;
  recovery.push_back([] {});  // recovery always succeeds

  InferenceServer::Config cfg;
  cfg.max_batch = 1;
  cfg.breaker_threshold = 1;  // the first failed batch trips
  cfg.recovery_backoff = microseconds(500);
  InferenceServer server(std::move(engines), std::move(recovery), cfg);

  auto rider = server.submit(tagged_image(1));
  in_failing_batch.get_future().wait();  // worker is inside the failing batch
  // Arrives mid-batch, behind the about-to-bounce rider.
  auto newcomer = server.submit(tagged_image(2));
  release_failing_batch.set_value();

  EXPECT_EQ(newcomer.get().status, Status::kOk);
  EXPECT_EQ(rider.get().status, Status::kOk);
  {
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_EQ(order, (std::vector<float>{1, 2}));
  }
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requeued, 1);
  EXPECT_EQ(stats.quarantines, 1);
  EXPECT_GE(stats.recoveries, 1);
}

TEST(FifoQueue, ElasticServerKeepsIdentityAcrossScaleUp) {
  // The pool grows mid-backlog: a scaled-up worker claims from the same
  // queue, and every request is answered exactly once.
  std::atomic<int> builds{0};
  InferenceServer::Config cfg;
  cfg.max_batch = 4;
  cfg.min_workers = 1;
  cfg.max_workers = 2;
  cfg.autoscale_interval = microseconds(1000);
  cfg.autoscale_cooldown = microseconds(0);
  InferenceServer server(slow_factory(builds, milliseconds(2)), cfg);

  std::vector<std::future<InferenceResult>> futs;
  for (int i = 0; i < 20; ++i) futs.push_back(server.submit(tagged_image(1)));
  for (auto& f : futs) EXPECT_EQ(f.get().status, Status::kOk);
  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.requests, 20);
  EXPECT_EQ(stats.requests + stats.rejected + stats.shed + stats.expired, 20);
}

}  // namespace
}  // namespace tbnet::runtime
