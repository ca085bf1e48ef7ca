#pragma once
// InferenceServer — multi-session request coalescing over batched engines,
// with bounded admission, a request deadline, and typed outcomes.
//
// Production serving rarely sees one request at a time: many clients submit
// single images concurrently, and the per-batch costs of the deployed TEE
// engine (world switches, TA invocations, channel traffic bookkeeping) make
// it much cheaper to push one batch of N than N batches of one. The server
// accepts concurrent submit() calls into one FIFO queue, runs queued
// requests through caller-provided batch functions on a pool of dispatch
// workers, and fans the per-image results back out through futures.
// Dispatch is work-conserving: a free worker takes what is queued, up to
// `max_batch`, from the front at once, so no request waits while a worker
// idles, and multi-request batches form from what queues while every worker
// is busy.
//
// Overload safety: the queue is bounded (`queue_capacity`) with a pick of
// admission policies — block the submitter (backpressure), reject the new
// request, or shed the oldest queued one — and every request carries the
// configured deadline (`default_deadline`), enforced at batch-formation time
// (an expired request resolves without ever touching an engine). Futures
// therefore always resolve with a typed InferenceResult::Status instead of
// submit() throwing mid-stream: Ok, Rejected (never admitted / shed),
// Expired (deadline passed in queue), or EngineError (its batch ran and the
// engine failed — e.g. TEE retry exhaustion, see runtime/deployed.h). The
// failure counters land in runtime::ServingStats alongside the latency
// recorders.
//
// Inter-op parallelism: the server runs one dispatch worker PER ENGINE
// function it is given. Each engine is invoked from exactly one worker
// thread, only ever for one batch at a time, so a non-thread-safe engine
// (DeployedTBNet, PartitionDeployment, a bare Sequential) is fine — the
// caller supplies N independent engines (each with its own
// ExecutionContext/arena; for DeployedTBNet that means one engine instance
// per worker) to serve N batches concurrently. Intra-op kernel threads nest
// under the dispatch workers on the shared ThreadPool, whose work-stealing
// scheduler lets those nested parallel_fors actually share cores.
//
// Supervision (PR 8): permanent engine loss is survivable. Each worker
// carries a circuit breaker — `breaker_threshold` consecutive failed
// batches, or any tee::PermanentFault / integrity fault, trips it — and a
// tripped worker is quarantined: it stops claiming work, the riders of its
// failing batch go back to the queue front ONCE for the surviving workers
// (their futures resolve from whichever batch finally runs them), and a
// supervisor thread retries the worker's RecoverFn (e.g.
// DeployedTBNet::reopen with a canary) under capped exponential backoff
// until the worker re-enters the pool. Workers without a RecoverFn go
// straight to dead. When the last live worker dies, everything queued (and
// every later submit) resolves with a typed status instead of hanging.
// Health states and the quarantine/recovery counters land in ServingStats.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/measurements.h"
#include "tensor/tensor.h"
#include "tensor/thread_annotations.h"

namespace tbnet::runtime {

/// What to do with a new submit() when the queue is at queue_capacity.
enum class AdmissionPolicy {
  /// Block the submitting thread until a worker frees queue space
  /// (backpressure: the client's own submit rate is throttled). A submit
  /// blocked at shutdown resolves Rejected instead of hanging.
  kBlock,
  /// Resolve the NEW request Rejected immediately; queued work is untouched.
  kReject,
  /// Drop the OLDEST queued request (it resolves Rejected, counted in
  /// ServingStats::shed) and admit the new one — under sustained overload
  /// this keeps the freshest work, which is what deadline-bound clients
  /// still have a use for.
  kShedOldest,
};

/// Typed outcome of one request. The future always resolves with one of
/// these — never an exception — so one bad request or one failing engine
/// cannot tear down a submitter iterating a futures vector.
enum class Status {
  kOk = 0,          ///< logits/label are valid
  kRejected,        ///< never ran: malformed shape, full queue, shed, shutdown
  kExpired,         ///< deadline passed before any engine saw it
  kEngineError,     ///< its batch ran and the engine failed (see error)
  kIntegrityError,  ///< its batch tripped an integrity check (corrupted
                    ///< transfer frame / model image) — detected, not served
};

const char* status_name(Status s);

/// One answered request.
struct InferenceResult {
  Status status = Status::kOk;
  std::string error;      ///< failure detail; empty when status == kOk
  Tensor logits;          ///< [classes] row for this image (kOk only)
  int64_t label = 0;      ///< argmax of the row (kOk only)
  int64_t batch_size = 0; ///< size of the batch this request rode in
  double queue_s = 0.0;   ///< submit -> batch start (or -> resolution)
  double total_s = 0.0;   ///< submit -> result ready

  bool ok() const { return status == Status::kOk; }
};

class InferenceServer {
 public:
  /// Maps an NCHW batch to [N, classes] logits (e.g. wraps
  /// DeployedTBNet::infer_batch). Each engine function is invoked from a
  /// single dispatch worker thread only. A throw is contained to the
  /// throwing batch: its requests resolve kEngineError, siblings are
  /// untouched, and the worker keeps serving.
  using BatchFn = std::function<Tensor(const Tensor& nchw)>;

  struct Config {
    /// Largest coalesced batch handed to an engine. Must not exceed what
    /// the engines accept (e.g. DeployedTBNet::Options::max_batch) — the
    /// engine's rejection would fail every request in a full batch.
    int64_t max_batch = 16;
    /// Retired and ignored: a free worker never waits for company before it
    /// claims (see the file comment). Kept only because perfbench's soak
    /// config still assigns it; it goes when perfbench next changes.
    std::chrono::microseconds max_queue_delay{0};
    /// Bound on queued (accepted, unclaimed) requests; 0 = unbounded, which
    /// keeps the pre-PR-7 behavior but lets latency diverge under overload
    /// (see bench_serving's soak section for the receipts).
    int64_t queue_capacity = 0;
    /// Applied when the queue is full (only meaningful with a bound).
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    /// Deadline stamped on every submit(); <= 0 = none. Enforced when a
    /// worker forms a batch: a request whose deadline has passed resolves
    /// kExpired without running, which bounds an accepted request's latency
    /// by deadline + one batch.
    std::chrono::microseconds default_deadline{0};
    /// Expected CHW shape of every request. When set, a mismatched submit
    /// resolves kRejected alone instead of poisoning its whole coalesced
    /// batch; when empty, the first accepted request pins the shape.
    Shape input_chw;
    // ---- supervision (PR 8) -------------------------------------------
    /// Consecutive failed batches that trip a worker's circuit breaker.
    /// PermanentFault / integrity failures trip it on the first strike
    /// regardless. <= 0 disables the breaker entirely (pre-PR-8 behavior:
    /// failures resolve kEngineError and the worker keeps serving).
    int breaker_threshold = 3;
    /// Supervisor backoff before recovery attempt k is
    /// recovery_backoff * 2^(k-1), capped at recovery_max_backoff.
    std::chrono::microseconds recovery_backoff{5000};
    std::chrono::microseconds recovery_max_backoff{1000000};
    // ---- elasticity (PR 10) -------------------------------------------
    // The fixed-pool constructors pin min_workers = max_workers =
    // engines.size(). The autoscaler runs only when max_workers >
    // min_workers, so a fixed pool never reads the other three.
    /// Workers the elastic server keeps active at all times; the factory is
    /// invoked for them at construction. Must be >= 1 and <= max_workers.
    int min_workers = 1;
    /// Hard ceiling on concurrently active workers. The factory is invoked
    /// lazily (on the supervisor thread, first time a slot scales up), so an
    /// engine that is never needed is never built.
    int max_workers = 1;
    /// How often the supervisor evaluates the scaling policy.
    std::chrono::microseconds autoscale_interval{10000};
    /// Minimum gap between two scaling actions (up OR down). Hysteresis: a
    /// load spike that scales up cannot bounce straight back down — the
    /// utilization signal gets at least one cooldown to reflect the new
    /// pool before the next decision.
    std::chrono::microseconds autoscale_cooldown{100000};
    /// Park a worker when mean active-worker utilization since the last
    /// tick falls below this AND the queue is empty. 0 disables scale-down.
    double scale_down_utilization = 0.3;
  };

  /// Restores a broken worker's engine (e.g. a lambda calling
  /// DeployedTBNet::reopen with a canary batch). Runs on the supervisor
  /// thread while the worker is quarantined — never concurrently with the
  /// worker's BatchFn. A throw means the attempt failed; the supervisor
  /// backs off and retries.
  using RecoverFn = std::function<void()>;

  /// Fixed pool: one dispatch worker per engine; engines must all serve the
  /// same model (the server round-robins batches across them by
  /// availability, so any request may land on any engine). `recovery` is
  /// empty (no worker can recover: a tripped breaker is terminal) or one
  /// entry per engine (a null entry makes that worker unrecoverable). This
  /// is the elastic server below with min_workers = max_workers =
  /// engines.size() and a factory that hands out engines[w], recovery[w].
  InferenceServer(std::vector<BatchFn> engines, std::vector<RecoverFn> recovery,
                  Config cfg);
  InferenceServer(std::vector<BatchFn> engines, Config cfg)
      : InferenceServer(std::move(engines), std::vector<RecoverFn>{},
                        std::move(cfg)) {}
  InferenceServer(BatchFn engine, Config cfg)
      : InferenceServer(std::vector<BatchFn>{std::move(engine)},
                        std::move(cfg)) {}
  explicit InferenceServer(BatchFn engine)
      : InferenceServer(std::move(engine), Config{}) {}

  /// Builds one worker's engine + recovery pair — e.g. deploy a fresh
  /// DeployedTBNet (the reopen()-style deploy path) and wrap it. Invoked on
  /// the constructing thread for the first min_workers slots and on the
  /// supervisor thread (outside the server lock) when the autoscaler spawns
  /// a later slot; never invoked concurrently with itself. A throw during
  /// construction propagates; a throw during scale-up cancels that scale-up
  /// (counted in ServingStats::canary_failures) and the slot stays parked.
  using EngineFactory = std::function<std::pair<BatchFn, RecoverFn>(int worker)>;

  /// Elastic server: cfg.min_workers..cfg.max_workers dispatch workers,
  /// scaled by the supervisor off queue depth and worker utilization (see
  /// the Config knobs) when max_workers > min_workers. Slots above
  /// min_workers start Parked with no engine built; scale-up activates them
  /// (building the engine on first use) and scale-down parks the highest
  /// active slot again. Parked workers hold no batch mid-park — a worker
  /// finishes its claimed batch before it stops claiming — so
  /// drain()/shutdown() accounting is unchanged.
  InferenceServer(EngineFactory factory, Config cfg);

  /// Drains the queue and joins the workers.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one CHW image; thread-safe. The future always resolves with a
  /// typed status (see InferenceResult) — malformed shapes, a full queue
  /// under kReject, or a post-shutdown submit resolve kRejected instead of
  /// throwing. Under kBlock with a full queue this call blocks (that is the
  /// backpressure). The request carries cfg.default_deadline.
  std::future<InferenceResult> submit(Tensor image_chw);

  /// Blocks until every request submitted so far has been answered.
  void drain();

  /// Stops accepting work, drains, joins. Queued requests are still served
  /// (or expired); submitters blocked on admission resolve kRejected.
  /// Idempotent and safe to race: the first caller joins the workers; a
  /// concurrent caller may return before that drain completes.
  void shutdown();

  /// Snapshot of the serving statistics (thread-safe). per_worker holds one
  /// entry per dispatch worker; uptime_s is stamped at the snapshot.
  ServingStats stats() const;

  const Config& config() const { return cfg_; }
  /// Worker SLOTS: max_workers, which a fixed pool pins to its engine count.
  /// ServingStats::per_worker has this many entries; parked slots show
  /// health kParked with zero batches.
  int workers() const { return static_cast<int>(engines_.size()); }

 private:
  struct Pending {
    Tensor image;
    std::promise<InferenceResult> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute expiry; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    /// Already survived one failed batch. A rider is re-queued AT MOST once
    /// (bounding the work one request can consume); a second failure
    /// resolves it with the failing batch's status.
    bool requeued = false;
  };

  /// Supervisor-side state of one worker; guarded by mu_.
  struct WorkerControl {
    WorkerHealth health = WorkerHealth::kHealthy;
    int strikes = 0;            ///< consecutive failed batches while Healthy
    int recovery_attempts = 0;  ///< failed recoveries since quarantine
    std::chrono::steady_clock::time_point next_recovery{};
    /// busy_s at the previous autoscaler tick (utilization delta base).
    double tick_busy_s = 0.0;
  };

  /// A fixed pool's factory and its Config, pinned to min_workers =
  /// max_workers = engines.size(). Built together in fixed_pool, so no
  /// argument reads `engines` after another has moved it.
  struct FixedPool {
    EngineFactory factory;
    Config cfg;
  };
  static FixedPool fixed_pool(std::vector<BatchFn> engines,
                              std::vector<RecoverFn> recovery, Config cfg);
  explicit InferenceServer(FixedPool pool);

  void worker_loop(int worker);
  void supervisor_loop();
  /// One autoscaler evaluation (elastic servers only), run entirely under
  /// mu_. Unpark/park actions apply inline; when scale-up needs an engine
  /// BUILT, returns the slot (marked Recovering so no tick re-picks it) for
  /// supervisor_loop to run the factory outside the lock. Returns -1 when
  /// no build is needed.
  int autoscale_tick(std::chrono::steady_clock::time_point now)
      TS_REQUIRES(mu_);
  void run_batch(int worker, std::vector<Pending> batch);
  /// Trips worker `w`'s breaker: quarantined (supervisor woken) when it has
  /// a RecoverFn, dead otherwise. Returns true if this call transitioned it
  /// out of Healthy.
  bool trip_breaker_locked(int w) TS_REQUIRES(mu_);
  /// Counts workers not Dead (Parked workers ARE live: the autoscaler can
  /// return them to rotation, so queued work remains servable).
  int live_workers_locked() const TS_REQUIRES(mu_);
  /// Counts workers in rotation (Healthy / Quarantined / Recovering).
  int active_workers_locked() const TS_REQUIRES(mu_);
  /// Resolves `p` with a non-Ok status, stamping latency fields.
  static void resolve_failure(Pending& p, Status status, std::string error);

  std::vector<BatchFn> engines_;  ///< engines_[w] runs on workers_[w] only
  std::vector<RecoverFn> recovery_;  ///< one per slot; null = unrecoverable
  /// Builds each slot's engine: the first min_workers at construction, the
  /// rest when the autoscaler first scales them up. Only the supervisor
  /// thread invokes it after construction, always outside mu_.
  EngineFactory factory_;
  Config cfg_;
  std::chrono::steady_clock::time_point start_;

  mutable Mutex mu_;
  /// Healthy workers wake on arrivals/leftovers/shutdown. Only CLAIMABLE
  /// workers ever wait here: a non-Healthy waiter could consume a wakeup
  /// meant for the worker that can actually serve the request (lost
  /// wakeup), and in an elastic server non-Healthy slots are the steady-
  /// state majority — they wait on park_cv_ instead.
  CondVar queue_cv_;
  /// Non-Healthy workers wait here to be restored (recovery, scale-up) or
  /// shut down.
  CondVar park_cv_;
  CondVar idle_cv_;        // drain() waits for in-flight == 0
  CondVar space_cv_;       // kBlock submitters wait for room
  CondVar supervisor_cv_;  // supervisor waits for quarantines
  /// Accepted, unclaimed requests in arrival order; requeued riders go back
  /// to the front.
  std::deque<Pending> queue_ TS_GUARDED_BY(mu_);
  /// Pinned input shape ({} until first accept).
  Shape expected_chw_ TS_GUARDED_BY(mu_);
  /// Submitted, not yet answered.
  int64_t in_flight_ TS_GUARDED_BY(mu_) = 0;
  bool stop_ TS_GUARDED_BY(mu_) = false;
  ServingStats stats_ TS_GUARDED_BY(mu_);
  std::vector<WorkerControl> control_ TS_GUARDED_BY(mu_);  // one per worker
  /// Cooldown gate: no scaling action before this instant.
  std::chrono::steady_clock::time_point next_scale_allowed_ TS_GUARDED_BY(mu_);
  /// Previous autoscaler tick (utilization-delta denominator).
  std::chrono::steady_clock::time_point last_tick_ TS_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

}  // namespace tbnet::runtime
