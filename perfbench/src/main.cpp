// perfbench — runs one benchmark workload and prints its report.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//   perfbench --selftest
//
// Workloads (perfbench/README.md has the reasons and the metric table):
//   single_stream     one closed-loop client, ResNet20 w=1.0, 1 worker
//   poisson_server    Poisson arrivals at a fixed rate plus a fixed rate
//                     ladder, ResNet20 w=0.125, 2 workers on one device
//   protect_pipeline  TbnetPipeline::run on a ResNet20 w=0.125 victim, then
//                     the product served by one closed-loop client
//
// Every input (model weights, BatchNorm scales, images, arrival gaps) is
// drawn from --seed. --trace 0 measures the end-to-end metrics; --trace 1
// also records spans around the public calls into each module, replays one
// engine batch stage by stage, and writes a chrome://tracing file to DIR.
// The last stdout line is the report as one JSON object; a failed output
// check makes it "correct": false and the exit code 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "model.h"
#include "serving.h"
#include "tee/device_profile.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace perfbench {
namespace {

using namespace tbnet;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

// ---- fixed workload parameters ---------------------------------------------

/// Absolute Poisson rate of poisson_server's latency measurement: about 40%
/// of the rate ladder's answer on the 4-vCPU reference host (550-950 rps).
/// At 60% of it the two workers were ~90% busy and the p99 moved by 15-30%
/// between runs.
constexpr double kNominalRps = 300.0;
/// The rate ladder: kLadderBase * kLadderStep^k, k < kLadderRungs (100 rps
/// to ~3.7k rps in 5% steps), searched by bisection.
constexpr double kLadderBase = 100.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 75;
/// A rung passes when the p99 of every request sent, failures counted as
/// misses, is within one frame at 10 fps (the soak deadline).
constexpr double kLatencyLimitMs = 100.0;
/// Requests sent to a fresh server before its measured phase, so the
/// worker threads' first allocations are behind it.
constexpr double kWarmupSeconds = 0.5;
/// Fresh set-ups whose median is setup_s.
constexpr int kSetupRepeats = 21;
/// Each measured serving phase runs as this many back-to-back windows on
/// one server, with TbnetPipeline::run samples between them: a serving
/// workload takes some before serving and more after each window, so its
/// pipeline_s spans the whole run.
constexpr int kWindows = 5;
constexpr int kPipelineRunsBefore = 2;
constexpr int kPipelineRunsPerWindow = 2;
/// Served requests compared against the in-process model.
constexpr int kParitySample = 32;
/// Images the clients draw requests from.
constexpr int kPoolImages = 64;
/// protect_pipeline's SyntheticCifar splits.
constexpr int64_t kProtectTrain = 16;
constexpr int64_t kProtectTest = 16;

struct ServingSpec {
  double width;
  int workers;
  bool poisson;
};

ServingSpec serving_spec(const std::string& workload) {
  if (workload == "single_stream") return {1.0, 1, false};
  return {0.125, 2, true};
}

std::vector<Tensor> image_pool(uint64_t seed) {
  data::SyntheticCifar::Options o;
  o.samples = kPoolImages;
  o.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  o.split = 2;
  const data::SyntheticCifar images(o);
  std::vector<Tensor> pool;
  for (int64_t i = 0; i < kPoolImages; ++i) pool.push_back(images.get(i).image);
  return pool;
}

Tensor stack(const std::vector<Tensor>& images) {
  const Shape& chw = images.front().shape();
  Tensor out(Shape{static_cast<int64_t>(images.size()), chw.dim(0), chw.dim(1), chw.dim(2)});
  const int64_t per = chw.numel();
  for (size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i].data(), images[i].data() + per,
              out.data() + static_cast<int64_t>(i) * per);
  }
  return out;
}

std::string join_values(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : " ") + std::to_string(x);
  return out;
}

// ---- output checks over a serving phase -----------------------------------

void check_phase(const std::string& what, const Phase& ph, Report& report) {
  report.check(what + " accounting",
               check_accounting(static_cast<int64_t>(ph.requests.size()), ph.stats));
  report.check(what + " resolution", check_resolution(ph.unresolved, ph.stats));
}

/// A seeded sample of the phase's Ok logits against TwoBranchModel::forward.
void check_served_logits(const Phase& ph, const std::vector<Tensor>& pool,
                         core::TwoBranchModel& product, uint64_t seed, Report& report) {
  std::vector<size_t> ok;
  for (size_t i = 0; i < ph.requests.size(); ++i) {
    if (ph.requests[i].result.ok()) ok.push_back(i);
  }
  Rng rng(seed);
  rng.shuffle(ok);
  ok.resize(std::min<size_t>(ok.size(), kParitySample));
  if (ok.empty()) {
    report.check("served parity", "no Ok response to compare");
    return;
  }
  std::vector<Tensor> images, served;
  for (size_t i : ok) {
    images.push_back(pool[static_cast<size_t>(ph.requests[i].image)]);
    served.push_back(ph.requests[i].result.logits);
  }
  report.check("served parity", check_parity(served, product.forward(stack(images), false)));
}

// ---- shared serving pieces --------------------------------------------------

/// setup_s: fresh deploys (every engine + a started server + the first Ok
/// response), median of kSetupRepeats. Returns the last device, whose world
/// then holds the secure-memory cost at batch 1 (tee_peak_bytes): later
/// traffic can batch and raise the peak with timing.
std::unique_ptr<Device> deploy(const core::TwoBranchModel& product, int workers,
                               const std::vector<Tensor>& pool, Report& report) {
  std::unique_ptr<Device> dev;
  std::vector<double> setup_s, deploy_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    dev.reset();
    const auto t0 = Clock::now();
    dev = std::make_unique<Device>(product, workers);
    auto server = dev->serve(nullptr, nullptr);
    const runtime::InferenceResult first = server->submit(pool.front()).get();
    setup_s.push_back(since(t0));
    if (!first.ok()) {
      throw std::runtime_error(std::string("first request failed: ") +
                               runtime::status_name(first.status) + " " + first.error);
    }
    deploy_s.insert(deploy_s.end(), dev->deploy_s().begin(), dev->deploy_s().end());
  }
  report.set("setup_s", median(setup_s), "s", kSetupRepeats);
  report.set("runtime.engine.deploy_ms", median(deploy_s) * 1e3, "ms",
             static_cast<int64_t>(deploy_s.size()));
  report.set("runtime.engine.ta_image_bytes",
             static_cast<double>(dev->engine(0).ta_image_bytes()), "bytes");
  report.set("tee_peak_bytes", static_cast<double>(dev->world().memory().peak_bytes()),
             "bytes");
  return dev;
}

/// Every request of `windows`, in order (stats are left per window).
Phase pool_windows(const std::vector<Phase>& windows) {
  Phase all;
  for (const Phase& w : windows) {
    all.requests.insert(all.requests.end(), w.requests.begin(), w.requests.end());
    all.unresolved += w.unresolved;
    all.wall_s += w.wall_s;
  }
  return all;
}

/// Latency percentiles over every request of the measured phase; with
/// `closed`, also max_rate_rps as its Ok completions per second.
void latency_metrics(const Phase& all, bool closed, Report& report) {
  const std::vector<double> ms = all.latencies_ms();
  const auto n = static_cast<int64_t>(ms.size());
  report.set("latency_p50_ms", percentile(ms, 50.0), "ms", n);
  report.set("latency_p99_ms", percentile(ms, 99.0), "ms", n);
  if (closed) {
    report.set("max_rate_rps", static_cast<double>(n - all.failed()) / all.wall_s, "1/s", n);
  }
  report.attempted += n;
  report.failed += all.failed();
}

/// The measured phase: kWindows windows of `seconds / kWindows` on one
/// server, each checked on its own. `between` runs after every window,
/// while the server is idle.
template <typename RunPhase, typename Between>
std::vector<Phase> run_windows(runtime::InferenceServer& server, double seconds,
                               RunPhase&& run, Between&& between, Report& report) {
  std::vector<Phase> windows;
  for (int k = 0; k < kWindows; ++k) {
    windows.push_back(run(server, seconds / kWindows, nullptr, k));
    between();
    check_phase("window " + std::to_string(k), windows.back(), report);
  }
  return windows;
}

/// Server-layer numbers of a traced phase plus its request spans.
void server_metrics(const Phase& ph, const std::vector<BatchRecord>& batches,
                    Tracer& tracer, Report& report) {
  std::vector<double> queue_ms, total_ms, lag_ms;
  for (const RequestRecord& r : ph.requests) {
    queue_ms.push_back(r.result.queue_s * 1e3);
    if (r.result.ok()) total_ms.push_back(r.result.total_s * 1e3);
    lag_ms.push_back(r.lag_s * 1e3);
  }
  const auto n = static_cast<int64_t>(ph.requests.size());
  report.set("runtime.server.queue_wait_ms_p50", percentile(queue_ms, 50.0), "ms", n);
  report.set("runtime.server.queue_wait_ms_p99", percentile(queue_ms, 99.0), "ms", n);
  report.set("runtime.server.total_ms_p99", percentile(total_ms, 99.0), "ms",
             static_cast<int64_t>(total_ms.size()));
  report.set("runtime.server.batch_size_mean", ph.stats.mean_batch_size(), "count",
             ph.stats.batches);
  double util = 0.0;
  for (int w = 0; w < static_cast<int>(ph.stats.per_worker.size()); ++w) {
    util += ph.stats.worker_utilization(w);
  }
  report.set("runtime.server.worker_utilization",
             ph.stats.per_worker.empty() ? 0.0 : util / static_cast<double>(ph.stats.per_worker.size()),
             "share");
  report.set("runtime.server.failed_share",
             n ? static_cast<double>(ph.failed()) / static_cast<double>(n) : 0.0, "share", n);
  report.set("bench.generator_lag_ms_p99", percentile(lag_ms, 99.0), "ms", n);
  std::vector<double> dispatch_s = trace_requests(ph, batches, tracer);
  for (double& d : dispatch_s) d *= 1e3;
  report.set("runtime.server.dispatch_ms_p50", percentile(dispatch_s, 50.0), "ms",
             static_cast<int64_t>(dispatch_s.size()));
}

/// The traced session: a fresh server whose BatchFns record spans, warmed
/// up, then one traced phase. Records the server-layer metrics and the
/// engine batches, and returns the phase.
template <typename RunPhase>
Phase traced_session(Device& dev, double seconds, Tracer& tracer, Report& report,
                     std::vector<BatchRecord>* batches, RunPhase&& run) {
  BatchLog log;
  Phase traced;
  {
    auto server = dev.serve(&log, &tracer);
    run(*server, kWarmupSeconds, nullptr, kWindows);
    log.clear();
    traced = run(*server, seconds, &tracer, kWindows + 1);
  }
  *batches = log.records();
  server_metrics(traced, *batches, tracer, report);
  check_phase("traced phase", traced, report);
  report.attempted += static_cast<int64_t>(traced.requests.size());
  report.failed += traced.failed();
  return traced;
}

/// Traced over untraced latency p50, minus 1.
double overhead_share(const Phase& traced, const Phase& plain) {
  return percentile(traced.latencies_ms(), 50.0) / percentile(plain.latencies_ms(), 50.0) - 1.0;
}

void finish_device(Device& dev, Report& report) {
  report.set("tee.run_peak_bytes", static_cast<double>(dev.world().memory().peak_bytes()),
             "bytes");
  int64_t arena = 0;
  for (int w = 0; w < dev.workers(); ++w) arena += dev.engine(w).workspace_bytes();
  report.set("runtime.engine.ree_arena_bytes", static_cast<double>(arena), "bytes");
  report.check("no leak", check_no_leak(dev.leaked_bytes()));
}

/// Highest rung of the fixed ladder whose p99 (failures as misses) is
/// within kLatencyLimitMs, found by bisection on `server`.
double rate_ladder(runtime::InferenceServer& server, const std::vector<Tensor>& pool,
                   double probe_s, uint64_t seed, Report& report) {
  int lo = -1, hi = kLadderRungs;  // lo passes (or is below the ladder), hi fails
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = kLadderBase * std::pow(kLadderStep, mid);
    const Phase ph =
        open_loop(server, pool, rate, probe_s, seed + static_cast<uint64_t>(mid), nullptr);
    check_phase("ladder probe", ph, report);
    const std::vector<double> ms = ph.latencies_ms();
    const double p99 = percentile(ms, 99.0);
    const auto n = static_cast<int64_t>(ms.size());
    char name[64];
    std::snprintf(name, sizeof(name), "runtime.server.failed_share.r%04d", static_cast<int>(std::lround(rate)));
    report.set(name, n ? static_cast<double>(ph.failed()) / static_cast<double>(n) : 0.0,
               "share", n);
    std::snprintf(name, sizeof(name), "ladder.p99_ms.r%04d", static_cast<int>(std::lround(rate)));
    report.set(name, std::isfinite(p99) ? p99 : -1.0, "ms", n);
    (p99 <= kLatencyLimitMs ? lo : hi) = mid;
  }
  return lo < 0 ? 0.0 : kLadderBase * std::pow(kLadderStep, lo);
}

// ---- workloads --------------------------------------------------------------

void serving_workload(const Args& a, Report& report, Tracer& tracer) {
  const ServingSpec spec = serving_spec(a.workload);
  const auto [train, test] = cifar(32, 8, a.seed);
  std::vector<double> pipeline_s;
  Protected p =
      build_protected(spec.width, a.seed, train, test, kPipelineRunsBefore, &pipeline_s);
  report.check("protection", check_protection(p.report));
  report.stamp["model"] = p.cfg.name() + " w=" + std::to_string(spec.width) +
                          " secure_bytes=" + std::to_string(p.report.secure_bytes_final) +
                          " exposed_bytes=" + std::to_string(p.report.exposed_bytes_final);
  if (a.trace) {
    core::TwoBranchModel m = p.substitution.clone();
    const core::PipelineReport r =
        run_steps_traced(serving_protection(), m, p.points, train, test, tracer, report);
    if (r.secure_bytes_final != p.report.secure_bytes_final) {
      report.check("traced steps", "step-by-step protection differs from TbnetPipeline::run");
    }
    replay_training(p.substitution, owner_protection().transfer, train, tracer, report);
  }
  const std::vector<Tensor> pool = image_pool(a.seed);

  std::unique_ptr<Device> dev = deploy(p.product, spec.workers, pool, report);
  // A traced run halves the measured phase: untraced, then traced.
  const double main_s = (spec.poisson ? a.seconds * 0.4 : a.seconds) / (a.trace ? 2 : 1);
  // `stream` separates the Poisson gap sequences of one run's phases.
  auto run = [&](runtime::InferenceServer& server, double seconds, const Tracer* t,
                 int stream) {
    return spec.poisson ? open_loop(server, pool, kNominalRps, seconds,
                                    a.seed * 64 + static_cast<uint64_t>(stream), t)
                        : closed_loop(server, pool, seconds, t);
  };
  auto sample_pipeline = [&] {
    for (int k = 0; k < kPipelineRunsPerWindow; ++k) {
      core::TwoBranchModel m = p.substitution.clone();
      const auto t0 = Clock::now();
      core::TbnetPipeline(serving_protection()).run(m, p.points, train, test);
      pipeline_s.push_back(since(t0));
    }
  };
  std::vector<Phase> windows;
  {
    auto server = dev->serve(nullptr, nullptr);
    run(*server, kWarmupSeconds, nullptr, kWindows);
    windows = run_windows(*server, main_s, run, sample_pipeline, report);
    if (spec.poisson) {
      const double probe_s = a.seconds * 0.6 / std::ceil(std::log2(kLadderRungs + 1.0));
      report.set("max_rate_rps", rate_ladder(*server, pool, probe_s, a.seed, report), "1/s");
    }
  }
  report.set("pipeline_s", median(pipeline_s), "s", static_cast<int64_t>(pipeline_s.size()));
  report.stamp["pipeline_runs_s"] = join_values(pipeline_s);
  const Phase main_phase = pool_windows(windows);
  latency_metrics(main_phase, !spec.poisson, report);
  check_served_logits(main_phase, pool, p.product, a.seed, report);
  if (a.trace) {
    std::vector<BatchRecord> batches;
    const Phase traced = traced_session(*dev, main_s, tracer, report, &batches, run);
    report.set("bench.trace_overhead_share", overhead_share(traced, main_phase), "share");
    int64_t b = 1;
    if (spec.poisson) {
      b = std::max<int64_t>(1, std::llround(traced.stats.mean_batch_size()));
    }
    std::vector<Tensor> imgs(pool.begin(), pool.begin() + b);
    replay_stages(p.product, p.victim, stack(imgs), batches, tracer, report);
  }
  finish_device(*dev, report);
}

void protect_workload(const Args& a, Report& report, Tracer& tracer) {
  const models::ModelConfig cfg = resnet20(0.125, a.seed);
  const core::PipelineConfig pc = owner_protection();
  // setup_s: victim, substitution and datasets built.
  const std::vector<core::PrunePoint> points = models::prune_points(cfg);
  std::vector<double> setup_s;
  nn::Sequential victim;
  core::TwoBranchModel substitution;
  for (int k = 0; k < 2 * kSetupRepeats + 1; ++k) {
    const auto t0 = Clock::now();
    victim = models::build_victim(cfg);
    substitution = models::build_two_branch(victim, cfg);
    draw_bn_scales(substitution, points, a.seed ^ 0x5ca1e5ULL);
    const auto split = cifar(kProtectTrain, kProtectTest, a.seed);
    setup_s.push_back(since(t0));
  }
  report.set("setup_s", median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
  const auto [train, test] = cifar(kProtectTrain, kProtectTest, a.seed);

  // pipeline_s: TbnetPipeline::run on fresh copies for half the run.
  std::vector<double> pipeline_s;
  core::TwoBranchModel product;
  core::PipelineReport first;
  const auto t_phase = Clock::now();
  do {
    core::TwoBranchModel m = substitution.clone();
    core::TbnetPipeline pipeline(pc);
    const auto t0 = Clock::now();
    const core::PipelineReport r = pipeline.run(m, points, train, test);
    pipeline_s.push_back(since(t0));
    if (pipeline_s.size() == 1) {
      first = r;
    } else if (r.final_acc != first.final_acc ||
               r.secure_bytes_final != first.secure_bytes_final) {
      report.check("pipeline reproducible", "runs of one seed disagree");
    }
    product = std::move(m);
  } while (since(t_phase) + median(pipeline_s) < a.seconds * 0.5);
  report.set("pipeline_s", median(pipeline_s), "s", static_cast<int64_t>(pipeline_s.size()));
  report.stamp["pipeline_runs_s"] = join_values(pipeline_s);
  report.attempted += static_cast<int64_t>(pipeline_s.size());
  report.check("protection", check_protection(first));
  report.stamp["model"] = cfg.name() + " w=0.125 secure_bytes=" +
                          std::to_string(first.secure_bytes_final) + " exposed_bytes=" +
                          std::to_string(first.exposed_bytes_final);
  if (a.trace) {
    core::TwoBranchModel m = substitution.clone();
    const core::PipelineReport r = run_steps_traced(pc, m, points, train, test, tracer, report);
    if (r.final_acc != first.final_acc || r.secure_bytes_final != first.secure_bytes_final) {
      report.check("traced steps", "step-by-step protection differs from TbnetPipeline::run");
    }
    double steps = 0.0;
    for (const char* k : {"core.transfer_s", "core.prune_s", "core.rollback_s",
                          "core.recovery_s", "core.evaluate_s"}) {
      steps += report.metrics[k].value;
    }
    report.set("bench.trace_overhead_share", steps / median(pipeline_s) - 1.0, "share");
    replay_training(substitution, pc.transfer, train, tracer, report);
  }

  // The product: deployed, served by one closed-loop client, checked.
  const std::vector<Tensor> pool = image_pool(a.seed);
  Device dev(product, 1);
  const double serve_s = a.seconds * 0.5 / (a.trace ? 2 : 1);
  auto run = [&](runtime::InferenceServer& server, double seconds, const Tracer* t, int) {
    return closed_loop(server, pool, seconds, t);
  };
  std::vector<Phase> windows;
  {
    auto server = dev.serve(nullptr, nullptr);
    run(*server, kWarmupSeconds, nullptr, kWindows);
    windows = run_windows(*server, serve_s, run, [] {}, report);
  }
  const Phase ph = pool_windows(windows);
  latency_metrics(ph, /*closed=*/true, report);
  check_served_logits(ph, pool, product, a.seed, report);
  report.set("runtime.engine.deploy_ms", dev.deploy_s().front() * 1e3, "ms");
  report.set("runtime.engine.ta_image_bytes", static_cast<double>(dev.engine(0).ta_image_bytes()),
             "bytes");
  if (a.trace) {
    std::vector<BatchRecord> batches;
    const Phase traced = traced_session(dev, serve_s, tracer, report, &batches, run);
    report.set("bench.serving_trace_overhead_share", overhead_share(traced, ph), "share");
    replay_stages(product, victim, stack({pool.front()}), batches, tracer, report);
  }
  finish_device(dev, report);
  // The product is only ever served one image at a time.
  report.metrics["tee_peak_bytes"] = report.metrics["tee.run_peak_bytes"];
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--seconds") a.seconds = std::stod(v);
    else if (key == "--trace") a.trace = std::stoi(v) != 0;
    else if (key == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload != "single_stream" && a.workload != "poisson_server" &&
      a.workload != "protect_pipeline") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    return run_selftest() == 0 ? 0 : 1;
  }
  try {
    const Args a = parse(argc, argv);
    Report report;
    Tracer tracer;
    const char* threads = std::getenv("TBNET_THREADS");
    report.stamp["workload"] = a.workload;
    report.stamp["seed"] = std::to_string(a.seed);
    report.stamp["seconds"] = std::to_string(a.seconds);
    report.stamp["trace"] = a.trace ? "1" : "0";
    report.stamp["isa"] = tbnet::simd::isa_name();
    report.stamp["int8_isa"] = tbnet::simd::int8_isa_name();
    report.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
    report.stamp["tbnet_threads"] = threads ? threads : "unset";
    report.stamp["pool_threads"] = std::to_string(tbnet::ThreadPool::global().num_threads());
    report.stamp["device_profile"] = tbnet::tee::DeviceProfile::rpi3().name;
    char ladder[160];
    std::snprintf(ladder, sizeof(ladder),
                  "%.0f rps x %.2f^k, k < %d; nominal %.0f rps; limit p99 <= %.0f ms",
                  kLadderBase, kLadderStep, kLadderRungs, kNominalRps, kLatencyLimitMs);
    report.stamp["rate_ladder"] = ladder;

    if (a.workload == "protect_pipeline") {
      protect_workload(a, report, tracer);
    } else {
      serving_workload(a, report, tracer);
    }
    report.set("rss_peak_mib", static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");

    const std::string stem = a.out + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                             (a.trace ? "-traced" : "");
    if (a.trace) tracer.write_chrome(stem + ".trace.json");
    const std::string json = report.to_json();
    std::ofstream(stem + ".json") << json << "\n";
    for (const std::string& f : report.check_failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    std::printf("%s\n", json.c_str());
    return report.check_failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
