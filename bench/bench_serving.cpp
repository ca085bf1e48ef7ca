// bench_serving — the serving gates that CI holds against BENCH_serving.json.
//
// Every section serves the deployed TBNet engine of a ResNet20 (w=0.125):
//   * soak: one bounded worker under open-loop load at 1x, 2x and 10x its
//     closed-loop capacity, a 2x point with 1% transient faults, and an
//     unbounded 10x baseline whose p99 must grow with soak length;
//   * elastic: a 1x -> 10x -> 1x stepped load on an autoscaled pool against
//     a fixed single worker;
//   * chaos (--chaos): one of two workers is killed mid-soak and must come
//     back through its circuit breaker and DeployedTBNet::reopen;
//   * width_cap: two workers on a hardware-width pool, each engine sharding
//     at full width vs capped at half.
// --soak-seconds=S sets the soak length (default 2; 0 skips the soak and
// elastic sections). tools/check_bench_regression.py and CI's serving step
// read the JSON this prints. The end-to-end serving benchmark (latency and
// throughput per workload) is perfbench, not this program.
//
// Timing model: compute runs at host speed; the REE<->TEE world-switch and
// shared-memory transfer latencies of the paper's testbed (DeviceProfile
// rpi3, 50us/switch, 1GB/s channel) are injected into every TA invocation by
// TeeSession::simulate_timing.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "models/model_zoo.h"
#include "runtime/deployed.h"
#include "runtime/measurements.h"
#include "runtime/server.h"
#include "tee/device_profile.h"
#include "tee/optee_api.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace {

using namespace tbnet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One worker's own device: secure world, TEE context (and so fault
// injector) and deployed engine, with the RPi3 profile's switch and
// transfer stalls injected into every TA invoke. Killing one worker's TEE
// must not perturb another's, so no two workers share any of these.
struct Device {
  Device(const core::TwoBranchModel& tb, const tee::DeviceProfile& profile,
         const std::string& uuid)
      : world(profile.secure_mem_budget), ctx(world), engine(tb, ctx, uuid) {
    engine.session().simulate_timing(profile);
  }

  tee::SecureWorld world;
  tee::TeeContext ctx;
  runtime::DeployedTBNet engine;
};

/// `n` devices named `<prefix><w>`, each warmed up with one batch of four
/// images drawn from `rng`.
std::vector<std::unique_ptr<Device>> make_devices(
    const core::TwoBranchModel& tb, const tee::DeviceProfile& profile,
    const std::string& prefix, int n, Rng& rng) {
  std::vector<std::unique_ptr<Device>> devices;
  for (int w = 0; w < n; ++w) {
    devices.push_back(
        std::make_unique<Device>(tb, profile, prefix + std::to_string(w)));
    devices.back()->engine.infer_batch(Tensor::randn(Shape{4, 3, 32, 32}, rng));
  }
  return devices;
}

runtime::InferenceServer::BatchFn serve(runtime::DeployedTBNet& engine) {
  return [eng = &engine](const Tensor& nchw) { return eng->infer_batch(nchw); };
}

/// The server the gates hold: batches of up to 16 and, when `bounded`, a
/// 64-deep queue that sheds its oldest request and a 100 ms deadline.
runtime::InferenceServer::Config server_config(bool bounded) {
  runtime::InferenceServer::Config cfg;
  cfg.max_batch = 16;
  if (bounded) {
    cfg.queue_capacity = 64;
    cfg.admission = runtime::AdmissionPolicy::kShedOldest;
    cfg.default_deadline = std::chrono::milliseconds(100);
  }
  return cfg;
}

/// The 32 CHW images an open-loop submitter cycles through.
std::vector<Tensor> image_pool(uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(Tensor::randn(Shape{3, 32, 32}, rng));
  }
  return pool;
}

/// The soaks' 1x load: closed-loop throughput at batch 16 over 32 images,
/// after one warm-up batch (arena growth, TA state, page faults).
double measure_capacity(runtime::DeployedTBNet& engine) {
  constexpr int64_t kBatch = 16;
  constexpr int64_t kImages = 32;
  Rng rng(23);
  const Tensor input = Tensor::randn(Shape{kBatch, 3, 32, 32}, rng);
  engine.infer_batch(input);
  const auto t0 = Clock::now();
  for (int64_t images = 0; images < kImages; images += kBatch) {
    engine.infer_batch(input);
  }
  return static_cast<double>(kImages) / seconds_since(t0);
}

// ---- intra-op width cap --------------------------------------------------
// The rest of the program runs the one-thread pool the baseline was
// recorded on, where the cap cannot matter; this section swaps in a
// hardware-width pool and measures the same 2-worker closed-loop load with
// each engine sharding at full width (2x oversubscription) vs capped at
// half. Meaningful only on >= 2 real cores; CI notes the ratio warn-only
// for that reason.

struct WidthCapPoint {
  int hardware_threads = 0;
  int workers = 2;
  int capped_width = 0;
  double imgs_per_s_uncapped = 0.0;
  double imgs_per_s_capped = 0.0;
};

WidthCapPoint run_width_cap(const core::TwoBranchModel& tb,
                            const tee::DeviceProfile& profile) {
  WidthCapPoint p;
  ThreadPool hw_pool(0);  // hardware_concurrency
  ThreadPool::set_global_for_testing(&hw_pool);
  p.hardware_threads = hw_pool.num_threads();
  p.capped_width = std::max(1, p.hardware_threads / p.workers);
  Rng wrng(37);
  const auto devices =
      make_devices(tb, profile, "tbnet-width-", p.workers, wrng);
  for (const bool capped : {false, true}) {
    std::vector<runtime::InferenceServer::BatchFn> fns;
    for (const auto& d : devices) {
      d->engine.set_intra_op_width(capped ? p.capped_width : 0);
      fns.push_back(serve(d->engine));
    }
    runtime::InferenceServer server(std::move(fns), server_config(false));
    const int64_t per_thread = 48;
    const auto t0 = Clock::now();
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&server, per_thread, t] {
        Rng trng(300 + static_cast<uint64_t>(t));
        std::vector<std::future<runtime::InferenceResult>> futures;
        for (int64_t i = 0; i < per_thread; ++i) {
          futures.push_back(
              server.submit(Tensor::randn(Shape{3, 32, 32}, trng)));
        }
        for (auto& f : futures) f.get();
      });
    }
    for (auto& th : submitters) th.join();
    server.drain();
    const double imgs_per_s =
        4.0 * static_cast<double>(per_thread) / seconds_since(t0);
    (capped ? p.imgs_per_s_capped : p.imgs_per_s_uncapped) = imgs_per_s;
  }
  ThreadPool::set_global_for_testing(nullptr);
  return p;
}

// ---- overload soak (PR 7) -------------------------------------------------
// Open-loop load generation: a submitter fires at a fixed offered rate
// regardless of completions (unlike a closed loop, where waiting submitters
// implicitly throttle to the service rate). That is the regime where an
// unbounded queue diverges — latency grows with soak length — and where the
// bounded queue + shedding + deadlines must keep goodput and
// accepted-latency flat. Goodput divides Ok answers by the full wall time
// including drain, so an unbounded backlog pays for itself honestly.

struct SoakConfig {
  double offered_imgs_per_s = 0.0;
  double seconds = 0.0;
  bool bounded = true;
  double fault_rate = 0.0;
};

struct SoakPoint {
  double offered_x = 0.0;  ///< offered load as a multiple of 1x capacity
  double offered_imgs_per_s = 0.0;
  double soak_seconds = 0.0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t engine_errors = 0;
  int64_t retries = 0;
  int64_t faults_injected = 0;
  double goodput_imgs_per_s = 0.0;
  double accepted_p50_ms = 0.0;  ///< total_s of Ok requests only
  double accepted_p99_ms = 0.0;
  double batch_p99_ms = 0.0;
};

SoakPoint run_soak(Device& dev, const SoakConfig& sc) {
  const int64_t retries_before = dev.engine.retries();
  const int64_t faults_before = dev.ctx.faults().faults_injected();
  dev.ctx.faults().set_rate(sc.fault_rate);

  SoakPoint p;
  p.offered_imgs_per_s = sc.offered_imgs_per_s;
  p.soak_seconds = sc.seconds;
  runtime::LatencyRecorder accepted;
  runtime::ServingStats stats;
  double wall_s = 0.0;
  {
    runtime::InferenceServer server(serve(dev.engine),
                                    server_config(sc.bounded));
    const std::vector<Tensor> pool = image_pool(31);
    std::vector<std::future<runtime::InferenceResult>> futures;
    const auto interval =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(1.0 / sc.offered_imgs_per_s));
    const auto t0 = Clock::now();
    const auto end_at =
        t0 + std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::duration<double>(sc.seconds));
    auto next = t0;
    while (Clock::now() < end_at) {
      futures.push_back(server.submit(pool[futures.size() % pool.size()]));
      next += interval;
      std::this_thread::sleep_until(next);
    }
    server.drain();
    stats = server.stats();
    p.submitted = static_cast<int64_t>(futures.size());
    for (auto& f : futures) {
      runtime::InferenceResult r = f.get();
      if (r.ok()) {
        ++p.ok;
        accepted.record(r.total_s);
      }
    }
    wall_s = seconds_since(t0);
  }
  dev.ctx.faults().set_rate(0.0);

  p.rejected = stats.rejected;
  p.shed = stats.shed;
  p.expired = stats.expired;
  p.engine_errors = stats.engine_errors;
  p.retries = dev.engine.retries() - retries_before;
  p.faults_injected = dev.ctx.faults().faults_injected() - faults_before;
  p.goodput_imgs_per_s =
      wall_s > 0.0 ? static_cast<double>(p.ok) / wall_s : 0.0;
  p.accepted_p50_ms = accepted.percentile(50.0) * 1e3;
  p.accepted_p99_ms = accepted.percentile(99.0) * 1e3;
  p.batch_p99_ms = stats.batch_latency.percentile(99.0) * 1e3;
  return p;
}

// ---- chaos soak (PR 8) ----------------------------------------------------
// Supervision under a real kill: two workers with independent engines serve
// an open-loop 2x load; halfway through, one worker's TEE permanently
// faults (every boundary crossing raises PermanentFault), tripping its
// circuit breaker. The supervisor retries DeployedTBNet::reopen under
// backoff — failing while the fault persists — until the "operator fixes
// the device" at 70% of the soak, after which recovery re-admits the
// worker. The gate (tools/check_bench_regression.py): goodput after
// recovery within 5% of pre-kill goodput, and zero unresolved futures.

struct ChaosPoint {
  double soak_seconds = 0.0;
  double offered_imgs_per_s = 0.0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t unresolved = 0;  ///< futures not ready after drain — must be 0
  double kill_at_s = 0.0;
  double heal_at_s = 0.0;
  double recovery_time_s = -1.0;  ///< kill -> worker re-admitted (-1: never)
  double goodput_pre_kill = 0.0;
  double goodput_during_quarantine = 0.0;
  double goodput_after_recovery = 0.0;
  runtime::ServingStats stats;
};

ChaosPoint run_chaos(const core::TwoBranchModel& tb,
                     const tee::DeviceProfile& profile,
                     double offered_imgs_per_s, double seconds) {
  Rng crng(41);
  const Tensor canary = Tensor::randn(Shape{1, 3, 32, 32}, crng);
  const auto devices = make_devices(tb, profile, "tbnet-chaos-", 2, crng);
  std::vector<runtime::InferenceServer::BatchFn> fns;
  std::vector<runtime::InferenceServer::RecoverFn> recover;
  for (const auto& d : devices) {
    fns.push_back(serve(d->engine));
    // Recovery = full session re-establishment: tear down, re-deploy the TA
    // image (re-verifying its checksums), reopen, canary-infer. Throws while
    // the injected permanent fault persists — the supervisor backs off.
    recover.push_back([eng = &d->engine, canary] { eng->reopen(canary); });
  }
  tee::FaultInjector& victim_faults = devices[1]->ctx.faults();

  runtime::InferenceServer::Config scfg = server_config(true);
  scfg.breaker_threshold = 1;
  scfg.recovery_backoff = std::chrono::milliseconds(2);
  scfg.recovery_max_backoff = std::chrono::milliseconds(50);

  ChaosPoint p;
  p.soak_seconds = seconds;
  p.offered_imgs_per_s = offered_imgs_per_s;
  p.kill_at_s = seconds * 0.5;
  p.heal_at_s = seconds * 0.7;
  {
    runtime::InferenceServer server(std::move(fns), std::move(recover), scfg);
    const std::vector<Tensor> pool = image_pool(43);
    std::vector<std::future<runtime::InferenceResult>> futures;
    std::vector<double> submit_s;
    const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(1.0 / offered_imgs_per_s));
    const auto t0 = Clock::now();
    auto next = t0;
    bool killed = false, healed = false;
    double recovered_at = -1.0;
    while (true) {
      const double now_s = seconds_since(t0);
      if (now_s >= seconds) break;
      if (!killed && now_s >= p.kill_at_s) {
        // Permanent session loss on worker 1: every TEE boundary crossing
        // (open/invoke) now raises PermanentFault, including the reopens
        // the supervisor attempts.
        victim_faults.set_rate(1.0, /*permanent_fraction=*/1.0);
        killed = true;
      }
      if (killed && !healed && now_s >= p.heal_at_s) {
        victim_faults.set_rate(0.0);
        healed = true;
      }
      if (killed && recovered_at < 0.0 && server.stats().recoveries >= 1) {
        recovered_at = now_s;
      }
      submit_s.push_back(now_s);
      futures.push_back(server.submit(pool[futures.size() % pool.size()]));
      next += interval;
      std::this_thread::sleep_until(next);
    }
    if (!healed) {
      victim_faults.set_rate(0.0);
      healed = true;
    }
    // The worker may still be mid-backoff when submission ends; wait for the
    // recovery (bounded) so recovery_time_s and the after-window are real.
    const auto recovery_deadline = Clock::now() + std::chrono::seconds(10);
    while (recovered_at < 0.0 && Clock::now() < recovery_deadline) {
      if (server.stats().recoveries >= 1) {
        recovered_at = seconds_since(t0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.drain();
    p.stats = server.stats();
    p.submitted = static_cast<int64_t>(futures.size());
    if (recovered_at >= 0.0) p.recovery_time_s = recovered_at - p.kill_at_s;

    // Classify Ok completions (completion time = submit + total) into the
    // three windows; each goodput is ok-in-window over window length. The
    // tail after submission stopped is excluded from every window.
    const double t_end = seconds;
    const double t_rec = recovered_at >= 0.0 ? recovered_at : t_end;
    int64_t ok_pre = 0, ok_during = 0, ok_after = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++p.unresolved;  // drain() returned with a pending future: a bug
        continue;
      }
      const runtime::InferenceResult r = futures[i].get();
      if (!r.ok()) continue;
      ++p.ok;
      const double done_s = submit_s[i] + r.total_s;
      if (done_s < p.kill_at_s) {
        ++ok_pre;
      } else if (done_s < t_rec) {
        ++ok_during;
      } else if (done_s <= t_end) {
        ++ok_after;
      }
    }
    p.goodput_pre_kill = static_cast<double>(ok_pre) / p.kill_at_s;
    if (t_rec > p.kill_at_s) {
      p.goodput_during_quarantine =
          static_cast<double>(ok_during) / (t_rec - p.kill_at_s);
    }
    if (t_end > t_rec) {
      p.goodput_after_recovery =
          static_cast<double>(ok_after) / (t_end - t_rec);
    }
  }
  return p;
}

// ---- elastic soak (PR 10) -------------------------------------------------
// Worker autoscaling under a stepped load: 1x -> 10x -> 1x offered load,
// each for a third of the soak. The fixed single-worker pool is the
// baseline the PR-7 soak gates; the elastic server (min 1 / max 4 workers,
// same bounded queue) must match or beat its goodput while shedding
// strictly less — the spare slots absorb the 10x step, and the 1x thirds
// give the scale-down path room to park workers again without stranding
// any in-flight future.

struct ElasticLeg {
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t unresolved = 0;  ///< futures not ready after drain (must be 0)
  double goodput_imgs_per_s = 0.0;
  double shed_rate = 0.0;  ///< (submitted - ok) / submitted: all drop causes
  runtime::ServingStats stats;
};

/// Open-loop stepped load (1x / 10x / 1x, phase_s each) against `server`.
ElasticLeg drive_stepped_load(runtime::InferenceServer& server,
                              double capacity, double phase_s) {
  ElasticLeg leg;
  const std::vector<Tensor> pool = image_pool(47);
  std::vector<std::future<runtime::InferenceResult>> futures;
  const double steps[3] = {1.0, 10.0, 1.0};
  const auto t0 = Clock::now();
  for (int phase = 0; phase < 3; ++phase) {
    const auto interval =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(1.0 / (capacity * steps[phase])));
    const auto end_at =
        t0 + std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::duration<double>(phase_s *
                                               static_cast<double>(phase + 1)));
    auto next = Clock::now();
    while (Clock::now() < end_at) {
      futures.push_back(server.submit(pool[futures.size() % pool.size()]));
      next += interval;
      std::this_thread::sleep_until(next);
    }
  }
  server.drain();
  leg.stats = server.stats();
  leg.submitted = static_cast<int64_t>(futures.size());
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++leg.unresolved;  // drain() returned with this future dangling
      continue;
    }
    if (f.get().ok()) ++leg.ok;
  }
  const double wall_s = seconds_since(t0);
  leg.goodput_imgs_per_s =
      wall_s > 0.0 ? static_cast<double>(leg.ok) / wall_s : 0.0;
  leg.shed_rate =
      leg.submitted > 0
          ? static_cast<double>(leg.submitted - leg.ok) /
                static_cast<double>(leg.submitted)
          : 0.0;
  return leg;
}

struct ElasticPoint {
  double soak_seconds = 0.0;
  ElasticLeg fixed;
  ElasticLeg elastic;
};

ElasticPoint run_elastic(const core::TwoBranchModel& tb,
                         const tee::DeviceProfile& profile, double capacity,
                         double seconds) {
  ElasticPoint p;
  p.soak_seconds = seconds;
  const double phase_s = seconds / 3.0;

  // Both servers deploy their engines through the same factory shape, so
  // the fixed baseline pays the identical deploy path as every elastic
  // slot (own secure world, own TA session, own arena).
  struct Slots {
    std::mutex mu;
    std::vector<std::unique_ptr<Device>> devices;
  };
  const auto make_factory = [&tb, &profile](Slots& slots) {
    return [&tb, &profile, &slots](int worker) {
      // Invocations are serial by contract (construction thread, then the
      // supervisor); the lock just makes that independence obvious.
      std::lock_guard<std::mutex> lock(slots.mu);
      slots.devices.push_back(std::make_unique<Device>(
          tb, profile, "tbnet-elastic-" + std::to_string(worker)));
      return std::make_pair(serve(slots.devices.back()->engine),
                            runtime::InferenceServer::RecoverFn{});
    };
  };

  {
    Slots slots;  // outlives the server (declared first)
    runtime::InferenceServer::Config fixed_cfg = server_config(true);
    fixed_cfg.min_workers = 1;
    fixed_cfg.max_workers = 1;
    runtime::InferenceServer server(make_factory(slots), fixed_cfg);
    p.fixed = drive_stepped_load(server, capacity, phase_s);
  }
  {
    Slots slots;
    runtime::InferenceServer::Config elastic_cfg = server_config(true);
    elastic_cfg.min_workers = 1;
    elastic_cfg.max_workers = 4;
    elastic_cfg.autoscale_interval = std::chrono::milliseconds(20);
    elastic_cfg.autoscale_cooldown = std::chrono::milliseconds(150);
    runtime::InferenceServer server(make_factory(slots), elastic_cfg);
    p.elastic = drive_stepped_load(server, capacity, phase_s);
  }
  return p;
}

void print_soak_point(const SoakPoint& p, double goodput_1x,
                      const char* trailer) {
  std::printf(
      "      {\"offered_x\": %.2f, \"offered_imgs_per_s\": %.1f, "
      "\"soak_seconds\": %.2f, \"submitted\": %lld, \"ok\": %lld, "
      "\"rejected\": %lld, \"shed\": %lld, \"expired\": %lld, "
      "\"engine_errors\": %lld, \"retries\": %lld, "
      "\"faults_injected\": %lld, \"goodput_imgs_per_s\": %.2f, "
      "\"goodput_vs_1x\": %.3f, \"shed_rate\": %.3f, "
      "\"accepted_p50_ms\": %.3f, \"accepted_p99_ms\": %.3f, "
      "\"batch_p99_ms\": %.3f}%s\n",
      p.offered_x, p.offered_imgs_per_s, p.soak_seconds,
      static_cast<long long>(p.submitted), static_cast<long long>(p.ok),
      static_cast<long long>(p.rejected), static_cast<long long>(p.shed),
      static_cast<long long>(p.expired),
      static_cast<long long>(p.engine_errors),
      static_cast<long long>(p.retries),
      static_cast<long long>(p.faults_injected), p.goodput_imgs_per_s,
      goodput_1x > 0.0 ? p.goodput_imgs_per_s / goodput_1x : 0.0,
      p.submitted > 0
          ? static_cast<double>(p.shed + p.rejected + p.expired) /
                static_cast<double>(p.submitted)
          : 0.0,
      p.accepted_p50_ms, p.accepted_p99_ms, p.batch_p99_ms, trailer);
}

}  // namespace

int main(int argc, char** argv) {
  // BENCH_serving.json was recorded with the kernel pool at one thread, so
  // the gates compare like with like only under the same pin.
  setenv("TBNET_THREADS", "1", /*overwrite=*/0);

  bool chaos = false;
  double soak_seconds = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strncmp(argv[i], "--soak-seconds=", 15) == 0) {
      soak_seconds = std::atof(argv[i] + 15);
    } else {
      std::fprintf(stderr, "usage: %s [--chaos] [--soak-seconds=S]\n",
                   argv[0]);
      return 2;
    }
  }

  models::ModelConfig cfg;
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 17;

  const nn::Sequential victim = models::build_victim(cfg);
  const core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const tee::DeviceProfile profile = tee::DeviceProfile::rpi3();

  Device serving(tb, profile, "tbnet-serving");
  const double capacity = measure_capacity(serving.engine);
  const WidthCapPoint width_cap = run_width_cap(tb, profile);

  // ---- overload soak: bounded queue vs unbounded baseline ------------
  // The bounded points (capacity 64, shed-oldest, 100 ms deadline) must
  // hold goodput and accepted-p99 flat at 2x and 10x offered load, while
  // the unbounded baseline's request p99 grows with soak length at the same
  // 10x. A bounded 2x point also runs with a 1% transient fault rate to
  // show retry absorbing faults under load.
  std::vector<SoakPoint> soak_bounded;
  SoakPoint soak_faulty;
  std::vector<SoakPoint> soak_unbounded;
  if (soak_seconds > 0.0) {
    for (double x : {1.0, 2.0, 10.0}) {
      SoakConfig sc;
      sc.offered_imgs_per_s = capacity * x;
      sc.seconds = soak_seconds;
      sc.bounded = true;
      SoakPoint p = run_soak(serving, sc);
      p.offered_x = x;
      soak_bounded.push_back(p);
    }
    {
      SoakConfig sc;
      sc.offered_imgs_per_s = capacity * 2.0;
      sc.seconds = soak_seconds * 0.5;
      sc.bounded = true;
      sc.fault_rate = 0.01;
      soak_faulty = run_soak(serving, sc);
      soak_faulty.offered_x = 2.0;
    }
    // Short soaks: an unbounded 10x backlog must still be drained (and is
    // charged to goodput), so the submission windows stay small.
    for (double frac : {0.25, 0.5}) {
      SoakConfig sc;
      sc.offered_imgs_per_s = capacity * 10.0;
      sc.seconds = soak_seconds * frac;
      sc.bounded = false;
      SoakPoint p = run_soak(serving, sc);
      p.offered_x = 10.0;
      soak_unbounded.push_back(p);
    }
  }

  // ---- chaos soak: kill one of two workers mid-run -------------------
  ChaosPoint chaos_point;
  if (chaos) {
    const double chaos_seconds = soak_seconds > 0.0 ? soak_seconds : 2.0;
    chaos_point = run_chaos(tb, profile, capacity * 2.0, chaos_seconds);
  }

  // ---- elastic soak: autoscaled pool vs fixed single worker ----------
  ElasticPoint elastic_point;
  if (soak_seconds > 0.0) {
    elastic_point = run_elastic(tb, profile, capacity, soak_seconds);
  }

  // ---- JSON ----------------------------------------------------------
  std::printf("{\n");
  std::printf("  \"model\": \"%s\",\n", cfg.name().c_str());
  std::printf("  \"stages\": %d,\n", serving.engine.num_stages());
  std::printf("  \"device_timing\": \"%s\",\n", profile.name.c_str());
  std::printf("  \"threads\": %d,\n", ThreadPool::global().num_threads());
  std::printf("  \"isa\": \"%s\",\n", simd::isa_name());
  std::printf("  \"int8_isa\": \"%s\",\n", simd::int8_isa_name());
  // Oversubscription fix receipts: same 2-worker load, engines sharding at
  // full pool width (before) vs capped at pool/2 (after). Only meaningful
  // on >= 2 hardware threads; CI reports the ratio warn-only.
  std::printf("  \"width_cap\": {\n");
  std::printf("    \"hardware_threads\": %d,\n", width_cap.hardware_threads);
  std::printf("    \"workers\": %d,\n", width_cap.workers);
  std::printf("    \"capped_width\": %d,\n", width_cap.capped_width);
  std::printf("    \"imgs_per_s_uncapped\": %.2f,\n",
              width_cap.imgs_per_s_uncapped);
  std::printf("    \"imgs_per_s_capped\": %.2f,\n",
              width_cap.imgs_per_s_capped);
  std::printf("    \"speedup_capped_vs_uncapped\": %.3f\n",
              width_cap.imgs_per_s_uncapped > 0.0
                  ? width_cap.imgs_per_s_capped /
                        width_cap.imgs_per_s_uncapped
                  : 0.0);
  std::printf("  },\n");
  if (soak_bounded.empty()) {
    std::printf("  \"soak\": null,\n");
  } else {
    const double goodput_1x = soak_bounded.front().goodput_imgs_per_s;
    std::printf("  \"soak\": {\n");
    std::printf("    \"capacity_imgs_per_s\": %.2f,\n", capacity);
    std::printf("    \"queue_capacity\": 64,\n");
    std::printf("    \"admission\": \"shed_oldest\",\n");
    std::printf("    \"deadline_ms\": 100.0,\n");
    std::printf("    \"bounded\": [\n");
    for (size_t i = 0; i < soak_bounded.size(); ++i) {
      print_soak_point(soak_bounded[i], goodput_1x,
                       i + 1 < soak_bounded.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"bounded_fault_rate_0p01\": [\n");
    print_soak_point(soak_faulty, goodput_1x, "");
    std::printf("    ],\n");
    std::printf("    \"unbounded_10x\": [\n");
    for (size_t i = 0; i < soak_unbounded.size(); ++i) {
      print_soak_point(soak_unbounded[i], goodput_1x,
                       i + 1 < soak_unbounded.size() ? "," : "");
    }
    std::printf("    ],\n");
    // The two machine-portable headlines: bounded goodput held at 10x
    // offered load (gated by tools/check_bench_regression.py and CI), and
    // the unbounded baseline's p99 growing with soak length at fixed load
    // (the divergence the admission control exists to prevent).
    double goodput_vs_1x_at_10x = 0.0;
    for (const SoakPoint& p : soak_bounded) {
      if (p.offered_x == 10.0 && goodput_1x > 0.0) {
        goodput_vs_1x_at_10x = p.goodput_imgs_per_s / goodput_1x;
      }
    }
    std::printf("    \"goodput_vs_1x\": %.3f,\n", goodput_vs_1x_at_10x);
    const double p99_short = soak_unbounded.front().accepted_p99_ms;
    const double p99_long = soak_unbounded.back().accepted_p99_ms;
    std::printf("    \"unbounded_p99_growth\": %.3f\n",
                p99_short > 0.0 ? p99_long / p99_short : 0.0);
    std::printf("  },\n");
  }
  if (soak_seconds <= 0.0) {
    std::printf("  \"elastic\": null,\n");
  } else {
    const ElasticPoint& e = elastic_point;
    std::printf("  \"elastic\": {\n");
    std::printf("    \"soak_seconds\": %.2f,\n", e.soak_seconds);
    std::printf("    \"capacity_imgs_per_s\": %.2f,\n", capacity);
    std::printf("    \"load_steps_x\": [1.0, 10.0, 1.0],\n");
    std::printf("    \"min_workers\": 1,\n");
    std::printf("    \"max_workers\": 4,\n");
    std::printf(
        "    \"fixed\": {\"submitted\": %lld, \"ok\": %lld, "
        "\"goodput_imgs_per_s\": %.2f, \"shed_rate\": %.3f, "
        "\"unresolved\": %lld},\n",
        static_cast<long long>(e.fixed.submitted),
        static_cast<long long>(e.fixed.ok), e.fixed.goodput_imgs_per_s,
        e.fixed.shed_rate, static_cast<long long>(e.fixed.unresolved));
    std::printf(
        "    \"elastic\": {\"submitted\": %lld, \"ok\": %lld, "
        "\"goodput_imgs_per_s\": %.2f, \"shed_rate\": %.3f, "
        "\"unresolved\": %lld, \"scale_ups\": %lld, "
        "\"scale_downs\": %lld},\n",
        static_cast<long long>(e.elastic.submitted),
        static_cast<long long>(e.elastic.ok), e.elastic.goodput_imgs_per_s,
        e.elastic.shed_rate, static_cast<long long>(e.elastic.unresolved),
        static_cast<long long>(e.elastic.stats.scale_ups),
        static_cast<long long>(e.elastic.stats.scale_downs));
    // The machine-portable headlines the CI gate reads: the autoscaled pool
    // must hold goodput at least at the fixed baseline while shedding
    // strictly less, reach beyond min_workers at the 10x step, and resolve
    // every future.
    std::printf("    \"workers_high_water\": %lld,\n",
                static_cast<long long>(e.elastic.stats.workers_high_water));
    std::printf("    \"goodput_elastic_vs_fixed\": %.3f,\n",
                e.fixed.goodput_imgs_per_s > 0.0
                    ? e.elastic.goodput_imgs_per_s /
                          e.fixed.goodput_imgs_per_s
                    : 0.0);
    std::printf("    \"shed_rate_fixed\": %.3f,\n", e.fixed.shed_rate);
    std::printf("    \"shed_rate_elastic\": %.3f,\n", e.elastic.shed_rate);
    std::printf("    \"shed_rate_elastic_vs_fixed\": %.3f,\n",
                e.fixed.shed_rate > 0.0
                    ? e.elastic.shed_rate / e.fixed.shed_rate
                    : 0.0);
    std::printf("    \"unresolved\": %lld\n",
                static_cast<long long>(e.fixed.unresolved +
                                       e.elastic.unresolved));
    std::printf("  },\n");
  }
  if (!chaos) {
    std::printf("  \"chaos\": null\n");
  } else {
    const ChaosPoint& c = chaos_point;
    std::printf("  \"chaos\": {\n");
    std::printf("    \"workers\": 2,\n");
    std::printf("    \"soak_seconds\": %.2f,\n", c.soak_seconds);
    std::printf("    \"offered_imgs_per_s\": %.1f,\n", c.offered_imgs_per_s);
    std::printf("    \"kill_at_s\": %.3f,\n", c.kill_at_s);
    std::printf("    \"heal_at_s\": %.3f,\n", c.heal_at_s);
    std::printf("    \"submitted\": %lld,\n",
                static_cast<long long>(c.submitted));
    std::printf("    \"ok\": %lld,\n", static_cast<long long>(c.ok));
    std::printf("    \"unresolved\": %lld,\n",
                static_cast<long long>(c.unresolved));
    std::printf("    \"quarantines\": %lld,\n",
                static_cast<long long>(c.stats.quarantines));
    std::printf("    \"recoveries\": %lld,\n",
                static_cast<long long>(c.stats.recoveries));
    std::printf("    \"requeued\": %lld,\n",
                static_cast<long long>(c.stats.requeued));
    std::printf("    \"canary_failures\": %lld,\n",
                static_cast<long long>(c.stats.canary_failures));
    std::printf("    \"engine_errors\": %lld,\n",
                static_cast<long long>(c.stats.engine_errors));
    std::printf("    \"integrity_errors\": %lld,\n",
                static_cast<long long>(c.stats.integrity_errors));
    std::printf("    \"recovery_time_s\": %.3f,\n", c.recovery_time_s);
    std::printf("    \"goodput_pre_kill\": %.2f,\n", c.goodput_pre_kill);
    std::printf("    \"goodput_during_quarantine\": %.2f,\n",
                c.goodput_during_quarantine);
    std::printf("    \"goodput_after_recovery\": %.2f,\n",
                c.goodput_after_recovery);
    // The machine-portable headline: service restored to pre-kill goodput
    // (gate: >= 0.95) with every submitted future resolved (gate: 0).
    std::printf("    \"recovery_ratio\": %.3f\n",
                c.goodput_pre_kill > 0.0
                    ? c.goodput_after_recovery / c.goodput_pre_kill
                    : 0.0);
    std::printf("  }\n");
  }
  std::printf("}\n");
  return 0;
}
