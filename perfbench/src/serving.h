#pragma once
// The serving side of the benchmark: a simulated device (engines deployed
// into one secure world under Raspberry-Pi-3 timing), the closed-loop and
// Poisson open-loop clients, the rate ladder, and the stage replay that
// splits one engine batch into its layers beside tee::CostModel's forecast.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/two_branch.h"
#include "harness.h"
#include "nn/sequential.h"
#include "runtime/deployed.h"
#include "runtime/server.h"
#include "tee/optee_api.h"

namespace perfbench {

/// The repo's soak configuration: batches of up to 16, 2 ms coalescing
/// window, 64-deep queue shedding the oldest request, 100 ms deadline.
tbnet::runtime::InferenceServer::Config soak_config();

/// One engine batch as the traced BatchFn wrapper saw it, with the deltas
/// of its engine's TeeSession / channel counters.
struct BatchRecord {
  int worker = 0;
  int64_t images = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  int64_t switches = 0;
  double stall_s = 0.0;
  int64_t bytes_in = 0;
  int64_t span = -1;
};

/// Thread-safe collection of BatchRecords (dispatch workers append).
class BatchLog {
 public:
  void add(BatchRecord r);
  std::vector<BatchRecord> records() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<BatchRecord> records_;
};

/// One device: a SecureWorld (one TEE carve-out) shared by `workers`
/// engines, each with its own TeeContext, every session under rpi3 timing.
class Device {
 public:
  Device(const tbnet::core::TwoBranchModel& model, int workers);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int workers() const { return static_cast<int>(engines_.size()); }
  tbnet::runtime::DeployedTBNet& engine(int w) { return *engines_[static_cast<size_t>(w)]; }
  tbnet::tee::TeeContext& context(int w) { return *contexts_[static_cast<size_t>(w)]; }
  tbnet::tee::SecureWorld& world() { return world_; }
  /// Seconds each DeployedTBNet constructor took.
  const std::vector<double>& deploy_s() const { return deploy_s_; }

  /// A server over this device's engines. With `log` set, each BatchFn
  /// records a span and the TEE counter deltas around infer_batch.
  std::unique_ptr<tbnet::runtime::InferenceServer> serve(BatchLog* log,
                                                         Tracer* tracer);
  /// OneWayChannel::leaked_bytes() of every context.
  std::vector<int64_t> leaked_bytes();

 private:
  tbnet::tee::SecureWorld world_;
  std::vector<std::unique_ptr<tbnet::tee::TeeContext>> contexts_;
  std::vector<std::unique_ptr<tbnet::runtime::DeployedTBNet>> engines_;
  std::vector<double> deploy_s_;
};

/// One request as the client saw it.
struct RequestRecord {
  int64_t image = 0;     ///< index into the input pool
  double due_s = 0.0;    ///< scheduled send time (open loop), else submit
  double submit_s = 0.0;
  double lag_s = 0.0;    ///< open loop: submit - due; closed: idle before submit
  double latency_s = 0.0;
  tbnet::runtime::InferenceResult result;
};

/// One measured serving phase. Its stats are the server's counters
/// accumulated during the phase (a server may carry several phases).
struct Phase {
  std::vector<RequestRecord> requests;
  tbnet::runtime::ServingStats stats;
  int64_t unresolved = 0;  ///< futures not ready once drain() returned
  double wall_s = 0.0;

  int64_t failed() const;
  /// Latencies in ms, failed requests as +infinity (a failure is a miss).
  std::vector<double> latencies_ms() const;
};

/// One client that sends the next request when the previous one resolved.
Phase closed_loop(tbnet::runtime::InferenceServer& server,
                  const std::vector<tbnet::Tensor>& pool, double seconds,
                  const Tracer* tracer);

/// Poisson arrivals at `rate` per second for `seconds`, gaps drawn from
/// `seed`, sent from the calling thread.
Phase open_loop(tbnet::runtime::InferenceServer& server,
                const std::vector<tbnet::Tensor>& pool, double rate,
                double seconds, uint64_t seed, const Tracer* tracer);

/// Adds the request spans (request -> queue, engine) of a traced phase,
/// joining each Ok request to the batch it rode in. Returns each joined
/// request's dispatch time: total - queue - its engine batch span.
std::vector<double> trace_requests(const Phase& phase,
                                   const std::vector<BatchRecord>& batches,
                                   Tracer& tracer);

/// Stage replay: copies of the product's stage blocks frozen the way
/// deployment freezes them, one batch pushed through with every public call
/// timed, set beside the engine batches of the traced phase and beside
/// runtime::profile_deployment's tee::CostModel(rpi3) forecast.
void replay_stages(tbnet::core::TwoBranchModel& product,
                   const tbnet::nn::Sequential& victim,
                   const tbnet::Tensor& batch,
                   const std::vector<BatchRecord>& batches, Tracer& tracer,
                   Report& report);

}  // namespace perfbench
