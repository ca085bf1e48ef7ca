#pragma once
// Footprint measurement: per-stage MACs, transfer sizes, and memory needs of
// deployable models. These feed the tee:: cost model (latency, Tab. 3) and
// the secure-memory accounting (Fig. 3).

#include <cstdint>
#include <string>
#include <vector>

#include "core/two_branch.h"
#include "nn/sequential.h"
#include "tee/cost_model.h"

namespace tbnet::runtime {

/// Accumulates latency samples and answers percentile queries. Used for the
/// serving path's per-request and per-batch numbers (p50/p99 in Tab. style
/// reports and bench_serving's JSON).
///
/// Memory is bounded: count/total/mean/min/max are exact running values, but
/// at most `capacity` samples are retained for percentile queries, via
/// uniform reservoir sampling (Algorithm R with a fixed-seed splitmix64, so
/// runs are reproducible). Below capacity every sample is retained and
/// percentiles are exact — identical to the unbounded recorder; beyond it
/// they are unbiased estimates, which is what lets a week-long soak keep a
/// live p99 without `samples_` growing with uptime.
///
/// Concurrency contract: NOT internally synchronized. The recorders embedded
/// in ServingStats live inside InferenceServer behind its mutex (the stats_
/// member is TS_GUARDED_BY(mu_), which covers these fields transitively),
/// and stats() hands out value copies — a snapshot is never written again.
/// Standalone recorders in benches are single-threaded.
class LatencyRecorder {
 public:
  static constexpr int64_t kDefaultCapacity = 4096;

  explicit LatencyRecorder(int64_t capacity = kDefaultCapacity);

  void record(double seconds);

  int64_t count() const { return count_; }  ///< exact (not reservoir size)
  double total() const { return total_; }
  double mean() const;
  double min() const;
  double max() const;

  /// Nearest-rank percentile over the retained samples, p in [0, 100]
  /// (exact while count() <= capacity()). Returns 0 with no samples.
  double percentile(double p) const;

  /// The retained reservoir — all samples while count() <= capacity().
  const std::vector<double>& samples() const { return samples_; }
  int64_t capacity() const { return capacity_; }

 private:
  int64_t capacity_;
  int64_t count_ = 0;
  double total_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t rng_state_;
  std::vector<double> samples_;
};

/// Lifecycle state of one dispatch worker under the supervision layer
/// (PR 8). Transitions: Healthy -> Quarantined on a tripped circuit breaker
/// (K consecutive engine-error batches or any PermanentFault/IntegrityFault);
/// Quarantined -> Recovering when the supervisor's backoff elapses and its
/// RecoverFn runs; Recovering -> Healthy on success (canary passed) or back
/// to Quarantined with doubled backoff on failure; Healthy -> Dead when the
/// breaker trips on a worker without a RecoverFn. Dead is terminal for the
/// server's lifetime.
///
/// The autoscaler (PR 10) adds Parked: a deliberately idle worker that the
/// scaling policy has taken out of rotation (Healthy <-> Parked only — a
/// parked worker is not broken, so it never enters the recovery machinery,
/// and an elastic server's workers above `min_workers` start Parked until
/// load warrants spawning them). Parked workers count as live for
/// admission: a queued request is servable because the supervisor can
/// unpark capacity at the next tick.
enum class WorkerHealth {
  kHealthy = 0,
  kQuarantined,
  kRecovering,
  kDead,
  kParked,
};

/// Printable state name
/// ("healthy"/"quarantined"/"recovering"/"dead"/"parked").
/// Exhaustive switch, no default — adding a state breaks this build.
const char* worker_health_name(WorkerHealth health);

/// Per-dispatch-worker accounting inside runtime::InferenceServer: which
/// worker ran how many batches and how long it spent inside its engine.
/// Utilization (busy_s / ServingStats::uptime_s) is the load-balance
/// observable — with inter-op parallelism, one saturated worker next to
/// idle ones means the queue is starving, not the hardware.
struct WorkerStats {
  int64_t batches = 0;  ///< engine invocations dispatched by this worker
  int64_t images = 0;   ///< images across those batches
  double busy_s = 0.0;  ///< wall time spent inside the engine function
  WorkerHealth health = WorkerHealth::kHealthy;  ///< snapshot at stats()
  int64_t quarantines = 0;  ///< breaker trips on this worker
  int64_t recoveries = 0;   ///< successful recoveries (back to Healthy)
};

/// Aggregate serving statistics reported by runtime::InferenceServer.
/// Plain data, externally synchronized: the server's live instance is
/// guarded by its mutex; what stats() returns is an independent copy.
struct ServingStats {
  int64_t requests = 0;        ///< images an engine answered (Ok/EngineError)
  int64_t batches = 0;         ///< engine invocations
  /// Images that rode along with an already-pending request: each batch of
  /// n > 1 contributes n - 1 (its first image would have been served
  /// anyway). Equals requests - batches when every request was answered, so
  /// it directly counts the engine invocations coalescing saved; never
  /// exceeds requests - batches.
  int64_t coalesced_images = 0;
  int64_t max_batch_observed = 0;
  /// High-water mark of the submit queue (requests accepted but not yet
  /// claimed by a dispatch worker), sampled at every submit. A depth that
  /// keeps climbing past max_batch * workers means the worker pool is
  /// undersized for the offered load.
  int64_t max_queue_depth = 0;
  // ---- overload / fault accounting (PR 7). A request resolves through
  // exactly one of: requests (an engine ran it — engine_errors marks the
  // failed subset), rejected, shed, or expired; so every submit() is
  // requests + rejected + shed + expired.
  /// Requests never admitted: full queue under AdmissionPolicy::kReject, a
  /// malformed/mismatched input shape, or a submit after shutdown (all
  /// resolve Status::kRejected without touching the queue).
  int64_t rejected = 0;
  /// Admitted requests dropped from the queue FRONT by kShedOldest to make
  /// room for a newer one (they also resolve Status::kRejected — shedding
  /// keeps the freshest work when the queue is full).
  int64_t shed = 0;
  /// Admitted requests whose deadline passed before a worker claimed them;
  /// resolved Status::kExpired at batch-formation time, no engine ran them.
  int64_t expired = 0;
  /// Requests whose batch reached an engine that then failed; each resolves
  /// Status::kEngineError (counted per request, so a failed batch of n adds
  /// n). These ARE included in `requests`.
  int64_t engine_errors = 0;
  /// Requests that failed an integrity check (corrupted transfer frame or
  /// model image, surfaced as tee::IntegrityFault / nn::IntegrityError);
  /// each resolves Status::kIntegrityError and IS included in `requests`,
  /// like engine_errors. Corruption is never served as wrong logits.
  int64_t integrity_errors = 0;
  // ---- supervision accounting (PR 8). Riders of a failed batch that are
  // requeued do NOT count as `requests` until the batch that finally
  // resolves them runs, so the PR-7 identity above is preserved verbatim.
  int64_t quarantines = 0;       ///< circuit-breaker trips (all workers)
  int64_t recoveries = 0;        ///< workers returned Quarantined -> Healthy
  int64_t requeued = 0;          ///< riders re-queued off a tripped worker
  int64_t canary_failures = 0;   ///< recovery attempts that failed
  /// Engine-side counters the server cannot observe through BatchFn:
  /// transient-fault retries performed (DeployedTBNet::retries()) and
  /// faults injected (TeeContext::faults().faults_injected()). The
  /// integration (bench_serving, tests) folds them into its snapshot before
  /// reporting; the server itself leaves them 0.
  int64_t retries = 0;
  int64_t faults_injected = 0;
  // ---- elasticity accounting (PR 10). Autoscaler decisions made by the
  // supervisor tick; all 0 on a fixed-pool server.
  int64_t scale_ups = 0;    ///< supervisor unparked (or spawned) a worker
  int64_t scale_downs = 0;  ///< supervisor parked a worker
  /// Most workers simultaneously active (Healthy/Quarantined/Recovering —
  /// i.e. in rotation, not Parked/Dead) at any point; on a fixed pool this
  /// is simply the worker count.
  int64_t workers_high_water = 0;
  /// Seconds since the server started, stamped when stats() snapshots —
  /// the denominator for worker utilization.
  double uptime_s = 0.0;
  /// Kernel tiers the runtime dispatch selected for this process, stamped
  /// when stats() snapshots — the f32 and int8 ladders probe different CPU
  /// features (simd::isa_name / simd::int8_isa_name), and both read
  /// "scalar" under TBNET_DETERMINISTIC=1. Serving numbers are only
  /// comparable between runs that report the same tiers, so bench_serving
  /// embeds them in its JSON.
  std::string isa;
  std::string int8_isa;
  LatencyRecorder request_latency;  ///< submit -> result, per request
  LatencyRecorder batch_latency;    ///< engine call, per batch
  std::vector<WorkerStats> per_worker;  ///< one entry per dispatch worker

  double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) /
                              static_cast<double>(batches);
  }

  /// Fraction of the server's lifetime worker `w` spent inside its engine.
  double worker_utilization(int w) const {
    if (w < 0 || w >= static_cast<int>(per_worker.size()) || uptime_s <= 0.0) {
      return 0.0;
    }
    return per_worker[static_cast<size_t>(w)].busy_s / uptime_s;
  }
};

/// Static footprint of a two-branch deployment (batch size 1).
struct TwoBranchFootprint {
  std::vector<tee::StageCost> stages;
  int64_t secure_model_bytes = 0;     ///< M_T parameters + BN buffers
  int64_t exposed_model_bytes = 0;    ///< M_R parameters + BN buffers
  int64_t secure_activation_peak = 0; ///< analytic activation peak in TEE
  int64_t secure_total_bytes = 0;     ///< model + activation peak
  int64_t input_bytes = 0;
  int64_t total_transfer_bytes = 0;
};

/// Measures a two-branch model for a CHW input (batch dimension added
/// internally). Uses shape inference only — no forward pass is run.
TwoBranchFootprint measure_two_branch(const core::TwoBranchModel& model,
                                      const Shape& input_chw);

/// Static footprint of a single-branch (victim) model deployed whole.
struct VictimFootprint {
  std::vector<int64_t> stage_macs;
  std::vector<int64_t> stage_out_bytes;
  int64_t model_bytes = 0;
  int64_t activation_peak = 0;
  int64_t total_bytes = 0;  ///< model + activation peak
  int64_t input_bytes = 0;
};

VictimFootprint measure_victim(const nn::Sequential& victim,
                               const Shape& input_chw);

}  // namespace tbnet::runtime
