// serving_supervision — self-healing serving in one terminal.
//
// Two dispatch workers serve a two-branch model, each with its own secure
// world and TEE session. Mid-demo, worker 1's TEE "dies": every boundary
// crossing raises a permanent fault. Watch the supervision layer do its
// job — the circuit breaker quarantines the worker, its in-flight riders
// are re-queued to the healthy sibling (no request is lost), the
// supervisor retries DeployedTBNet::reopen under exponential backoff until
// the fault clears, and the recovered worker is re-admitted. Every phase
// prints the full health snapshot: per-worker state plus the supervision
// counters (quarantines / recoveries / requeued / canary failures).
//
// Run: ./build/examples/serving_supervision

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "models/model_zoo.h"
#include "runtime/deployed.h"
#include "runtime/measurements.h"
#include "runtime/server.h"
#include "tee/optee_api.h"
#include "tensor/rng.h"

using namespace tbnet;

namespace {

void print_health(const char* phase, const runtime::ServingStats& s) {
  std::printf("\n[%s]\n", phase);
  for (size_t w = 0; w < s.per_worker.size(); ++w) {
    const runtime::WorkerStats& ws = s.per_worker[w];
    std::printf("  worker %zu: %-11s (batches %lld, quarantines %lld, "
                "recoveries %lld)\n",
                w, runtime::worker_health_name(ws.health),
                static_cast<long long>(ws.batches),
                static_cast<long long>(ws.quarantines),
                static_cast<long long>(ws.recoveries));
  }
  std::printf("  served %lld | engine_errors %lld | integrity_errors %lld\n",
              static_cast<long long>(s.requests),
              static_cast<long long>(s.engine_errors),
              static_cast<long long>(s.integrity_errors));
  std::printf("  quarantines %lld | recoveries %lld | requeued %lld | "
              "canary_failures %lld | watchdog_trips %lld\n",
              static_cast<long long>(s.quarantines),
              static_cast<long long>(s.recoveries),
              static_cast<long long>(s.requeued),
              static_cast<long long>(s.canary_failures),
              static_cast<long long>(s.watchdog_trips));
}

int64_t submit_burst(runtime::InferenceServer& server, int n, Rng& rng) {
  std::vector<std::future<runtime::InferenceResult>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(server.submit(Tensor::randn(Shape{3, 32, 32}, rng)));
  }
  int64_t ok = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok;
  }
  return ok;
}

}  // namespace

int main() {
  models::ModelConfig cfg;
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 7;

  std::printf("deploying %s to two independent workers...\n",
              cfg.name().c_str());
  const nn::Sequential victim = models::build_victim(cfg);
  const core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  std::vector<std::unique_ptr<tee::SecureWorld>> worlds;
  std::vector<std::unique_ptr<tee::TeeContext>> ctxs;
  std::vector<std::unique_ptr<runtime::DeployedTBNet>> engines;
  std::vector<runtime::InferenceServer::BatchFn> fns;
  std::vector<runtime::InferenceServer::RecoverFn> recover;
  Rng rng(51);
  const Tensor canary = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  for (int w = 0; w < 2; ++w) {
    worlds.push_back(std::make_unique<tee::SecureWorld>());
    ctxs.push_back(std::make_unique<tee::TeeContext>(*worlds.back()));
    engines.push_back(std::make_unique<runtime::DeployedTBNet>(
        tb, *ctxs.back(), "tbnet-demo-" + std::to_string(w)));
    runtime::DeployedTBNet* eng = engines.back().get();
    fns.push_back([eng](const Tensor& nchw) { return eng->infer_batch(nchw); });
    recover.push_back([eng, canary] { eng->reopen(canary); });
  }

  runtime::InferenceServer::Config scfg;
  scfg.max_batch = 8;
  scfg.breaker_threshold = 1;
  scfg.recovery_backoff = std::chrono::milliseconds(5);
  scfg.recovery_max_backoff = std::chrono::milliseconds(80);
  runtime::InferenceServer server(std::move(fns), std::move(recover), scfg);

  int64_t ok = submit_burst(server, 32, rng);
  std::printf("warm traffic: %lld/32 Ok\n", static_cast<long long>(ok));
  print_health("both workers healthy", server.stats());

  // ---- kill worker 1's TEE ------------------------------------------------
  std::printf("\n>> killing worker 1: permanent fault on every TEE "
              "crossing (session loss)\n");
  ctxs[1]->faults().set_rate(1.0, /*permanent_fraction=*/1.0);
  ok = submit_burst(server, 32, rng);
  std::printf("traffic during the kill: %lld/32 Ok — riders of the dying "
              "worker were re-queued, not failed\n",
              static_cast<long long>(ok));
  while (server.stats().canary_failures < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  print_health("worker 1 quarantined, recovery failing (fault persists)",
               server.stats());

  // ---- the operator fixes the device --------------------------------------
  std::printf("\n>> clearing the fault: the next reopen() re-deploys the "
              "TA (checksums re-verified) and canary-infers\n");
  ctxs[1]->faults().set_rate(0.0);
  while (server.stats().recoveries < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ok = submit_burst(server, 32, rng);
  std::printf("traffic after recovery: %lld/32 Ok on two workers again\n",
              static_cast<long long>(ok));
  server.drain();
  print_health("worker 1 recovered and re-admitted", server.stats());
  std::printf("\nreopens on worker 1's engine: %lld\n",
              static_cast<long long>(engines[1]->reopens()));
  return 0;
}
