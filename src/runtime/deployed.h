#pragma once
// Deployed inference engines.
//
// DeployedTBNet is the production shape of a finalized two-branch model:
// M_R's blocks run as normal-world code; M_T is serialized, installed as a
// trusted application in the simulated secure world, and driven through the
// OP-TEE-style session API. Every intermediate feature map crosses the
// one-way channel; the TEE releases only the final prediction.
//
// The prior-art baselines run on the same trusted application, installed
// with secure-only stages (one per victim layer, no REE contribution), as
// one class: PartitionDeployment runs victim layers [0, first_tee_stage) in
// the REE and the rest in the TEE.
//   * first_tee_stage = 0 is the Full-TEE baseline — the entire victim
//     inside the TEE (full protection, worst latency/memory; the paper's
//     comparison baseline).
//   * first_tee_stage > 0 is the DarkneTZ-style layer split: the REE runs
//     the head and hands its plaintext feature map to the TEE; the
//     substitute-layer attack in attack/ breaks it, motivating TBNet's
//     one-way design.
// Each inference is one kCmdRun: an input record, then a release record.

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/two_branch.h"
#include "nn/sequential.h"
#include "tee/optee_api.h"
#include "tensor/execution_context.h"
#include "tensor/thread_annotations.h"

namespace tbnet::runtime {

/// TA command IDs. The TA serves kCmdRun and kCmdSetWidth only; a caller
/// caps the TA's intra-op width by sending kCmdSetWidth on session(). Ids 1
/// to 6 are retired; kCmdPushStage keeps its name because perfbench's invoke
/// replay still sends it to an echo TA.
inline constexpr uint32_t kCmdPushStage = 2;
inline constexpr uint32_t kCmdSetWidth = 7;
inline constexpr uint32_t kCmdRun = 8;

/// Record tags of a kCmdRun stream. Each record is an int64 tag and a body:
///   kRecordInput   a tensor (rank, dims, floats): the NCHW batch. It may
///                  only open a stream, and it starts a batch.
///   kRecordStage   the stage index, then a tensor: R_i's output, for a
///                  fused stage of the batch in progress. Stages arrive in
///                  order, across as many streams as it takes.
///   kRecordLogits  no body. Closes the stream after the last fused stage;
///                  the TA runs its secure-only stages and returns the
///                  [N, classes] logits. This ends the batch: the TA keeps
///                  nothing of it, and a second release finds no batch.
///   kRecordLabels  like kRecordLogits, but only one label per image leaves.
inline constexpr int64_t kRecordInput = 1;
inline constexpr int64_t kRecordStage = 2;
inline constexpr int64_t kRecordLogits = 3;
inline constexpr int64_t kRecordLabels = 4;

/// Splits a finalized TwoBranchModel into an REE half and an installed TA.
///
/// The engine is batch-oriented: infer_batch pushes a whole NCHW batch
/// through every stage, and the batch costs at most num_stages() TA
/// invocations however many images it holds. Batched results are
/// bit-identical to per-image calls (every kernel under it processes batch
/// elements independently in index order). Not thread-safe: one caller at a
/// time — InferenceServer invokes each of its engines from a single
/// dispatch worker only, so inter-op parallel serving means one
/// DeployedTBNet instance (own secure world / session / ExecutionContext)
/// per worker.
///
/// Inside a batch the engine pipelines the two worlds the way the paper's
/// cost model (tee::simulate_two_branch) assumes: each engine owns ONE
/// internal REE run-ahead thread, started by the constructor and joined by
/// the destructor. It runs M_R's stages on the REE ExecutionContext and
/// appends each output as a stage record to an engine-owned byte buffer
/// that the caller seeded with the input record (format: kRecordInput).
/// Whenever the calling thread is free to invoke, it swaps out every record
/// packed so far, waiting for at least one stage, and sends them as one
/// kCmdRun. The group that reaches the last fused stage also carries the
/// release record, and the logits (or labels) come back on that invoke.
/// Readiness alone picks the grouping: a batch costs 1 to num_stages()
/// invokes, so at most num_stages() + 1 world switches.
///
/// The run-ahead is bounded in bytes. With no stage record waiting the REE
/// may always start the next stage; otherwise only if the waiting bytes plus
/// one more stage (n × the largest per-image stage record seen) fit within
/// that per-image size × Options::max_batch. A full batch therefore runs at
/// most one stage ahead, like a double buffer, while a small batch groups
/// freely. The two buffers (one being filled, one in flight) are reserved
/// once, for max_batch images' worth of input and stage records.
///
/// Every TA invocation (and so the session, the retry policy and its jitter
/// PRNG) stays on the calling thread, as an OP-TEE SMC blocks only its
/// caller. The TA runs the same blocks on the same tensors in the same order
/// as a serial loop, so results are unchanged.
///
/// Deployment is also where the compute graph freezes: both branches' blocks
/// are cloned, inference-mode BatchNorm is folded into the adjacent conv
/// weights (nn/fuse.h), remaining conv/dense+activation runs fuse into GEMM
/// epilogues, and weights are pre-packed into microkernel panels
/// (Layer::prepare_inference). The engine therefore matches the in-process
/// TwoBranchModel::forward to ~1e-6 relative error, not bitwise, in both
/// kernel modes: TBNET_DETERMINISTIC=1 selects the scalar tier, whose bits
/// do not depend on the host's vector ISA, but it folds and fuses the same.
class DeployedTBNet {
 public:
  struct Options {
    /// Largest accepted batch; sizes the session's result cap so batched
    /// logits may leave the TEE while the per-image release budget is
    /// unchanged (max_batch * kDefaultMaxResultBytes total).
    int64_t max_batch = 64;
    /// Optional NCHW calibration batch. When non-empty, deployment runs
    /// post-training int8 quantization (nn/quant.h) over BOTH branches'
    /// frozen clones before the TA image serializes: the calibration batch
    /// is walked through the exact two-branch serving dataflow (REE chain,
    /// TEE chain, per-stage gather+add fusion) so every conv records its
    /// true input range, then every Conv2d (and wide Dense) ships int8. The
    /// TA image shrinks ~4x and the serving GEMMs run the int8 kernel tier
    /// (simd::int8_isa_name()). Empty = f32 deployment, unchanged.
    Tensor calibration;
  };

  /// Clones M_R into normal-world memory, serializes M_T + channel maps into
  /// a TA image and installs it in `ctx`'s secure world under `uuid`.
  DeployedTBNet(const core::TwoBranchModel& model, tee::TeeContext& ctx,
                std::string uuid = "tbnet-secure-branch");
  DeployedTBNet(const core::TwoBranchModel& model, tee::TeeContext& ctx,
                std::string uuid, Options opt);
  /// Joins the REE run-ahead thread.
  ~DeployedTBNet();
  /// The REE thread holds `this`.
  DeployedTBNet(const DeployedTBNet&) = delete;
  DeployedTBNet& operator=(const DeployedTBNet&) = delete;

  /// Runs one inference (CHW image), returning the logits the TEE releases.
  Tensor infer(const Tensor& image_chw);

  /// Runs a whole NCHW batch (N <= Options::max_batch) through every stage;
  /// returns the [N, classes] logits. A failure on either side (an REE layer
  /// rejecting the input, retry exhaustion, tee::PermanentFault,
  /// tee::IntegrityFault) cancels the run-ahead, waits for the REE thread to
  /// go idle, and rethrows the original exception type.
  Tensor infer_batch(const Tensor& batch_nchw);

  /// Runs one inference and returns only the predicted label (the strictly
  /// minimal output a hardened deployment would release).
  int64_t predict(const Tensor& image_chw);

  /// Batched predict: one label per image, nothing else leaves the TEE.
  std::vector<int64_t> predict_batch(const Tensor& batch_nchw);

  int num_stages() const { return static_cast<int>(exposed_.size()); }
  int64_t ta_image_bytes() const { return ta_image_bytes_; }
  int64_t max_batch() const { return opt_.max_batch; }

  /// High-water mark of the REE-side scratch arena (packed weight panels +
  /// per-call workspace). With fused im2col→panel lowering the conv stages
  /// allocate no column matrices, so this tracks the serving working set
  /// rather than the sum of per-layer lowering buffers.
  int64_t workspace_bytes() const { return exec_ctx_.arena().capacity_bytes(); }

  /// World switches this engine's session has performed (amortization
  /// observable: batch N costs the same count as a single image).
  int64_t world_switches() const;

  /// Transient-fault retries this engine has performed (session open +
  /// every TA invocation). Feeds ServingStats::retries in bench/tests;
  /// thread-safe, so a monitor may poll it while the engine's dispatch
  /// worker is mid-batch.
  int64_t retries() const {
    MutexLock lock(mu_);
    return retries_;
  }

  /// Recovers the engine after a permanent secure-world loss (TA panic,
  /// session torn down, corrupted transfer): re-installs the TA from the
  /// retained image bytes — which re-runs the v4 checksum verification the
  /// image got at first deploy — and re-opens the session under the retry
  /// policy. When `canary_nchw` is non-empty, one inference runs through
  /// the fresh session and the logits are checked for shape and finiteness;
  /// any failure throws and leaves the engine quarantine-able again. This
  /// is the InferenceServer supervision layer's RecoverFn; see
  /// runtime/server.h.
  void reopen(const Tensor& canary_nchw = Tensor());

  /// Times reopen() completed successfully. Thread-safe like retries().
  int64_t reopens() const {
    MutexLock lock(mu_);
    return reopens_;
  }

  /// The session, for enabling device-timing simulation in benches.
  tee::TeeSession& session() { return *session_; }

 private:
  /// Runs `batch` through both worlds and returns the bytes of the TA's
  /// `release` record (kRecordLogits or kRecordLabels): seeds the record
  /// buffer with the input record, hands the batch to the REE thread, then
  /// sends every group of ready records as one kCmdRun. Returns (or
  /// throws) only once the REE thread is idle again.
  std::vector<uint8_t> run(const Tensor& batch_nchw, int64_t release)
      TS_EXCLUDES(ree_mu_);

  /// REE run-ahead thread body: waits for a batch, then computes each stage
  /// as the byte bound allows and appends its record to ree_records_.
  void ree_loop() TS_EXCLUDES(ree_mu_);
  /// Whether the REE thread may start another stage of an `n`-image batch
  /// (the byte bound; see the class comment).
  bool may_run_ahead(int64_t n) const TS_REQUIRES(ree_mu_);
  /// Makes room in ree_records_ for a `bytes`-byte record. A buffer short
  /// of room is reserved at the byte bound in one step, so neither buffer
  /// grows by doubling.
  void reserve_record(int64_t bytes) TS_REQUIRES(ree_mu_);
  /// Caller side: cancels any further run-ahead and waits until the REE
  /// thread is idle (no batch), so exec_ctx_ has a single user again.
  void stop_ree() TS_EXCLUDES(ree_mu_);

  /// Runs `attempt` under the engine's fixed retry policy (deployed.cpp): a
  /// tee::TransientFault backs off (exponential, full jitter) and replays
  /// it; after the last attempt it throws std::runtime_error naming `what`.
  /// Permanent faults and every other exception propagate at once. A
  /// template, so a retried invoke allocates nothing for its callable.
  template <typename Attempt>
  void with_retry(const char* what, Attempt attempt);
  /// session_->invoke under with_retry; a TA status other than success
  /// throws std::runtime_error.
  void invoke_with_retry(uint32_t command, const std::vector<uint8_t>& in,
                         std::vector<uint8_t>* out, const char* what);
  /// Next backoff-jitter draw (splitmix64 over jitter_state_).
  uint64_t next_jitter() TS_REQUIRES(mu_);

  /// Opens (or re-opens) session_ against tee_ctx_ under with_retry.
  void open_session_with_retry();

  /// M_R's fused-stage blocks. They and exec_ctx_ belong to the REE thread
  /// while a batch is handed to it (ree_batch_ set) and to the caller
  /// otherwise; the hand-off under ree_mu_ orders every use on either side.
  std::vector<std::unique_ptr<nn::Layer>> exposed_;
  /// Deliberately NOT mu_-guarded: the engine is single-dispatch-thread by
  /// contract (class comment), and the one cross-thread writer — reopen()
  /// on the supervisor thread — only runs while the owning worker is parked
  /// in quarantine (InferenceServer's health protocol guarantees the
  /// worker's BatchFn and the RecoverFn never overlap). Guarding it here
  /// would serialize every TA invocation for a hand-off that is already
  /// externally synchronized.
  std::unique_ptr<tee::TeeSession> session_;
  Options opt_;
  ExecutionContext exec_ctx_;  ///< REE-world context; owner: see exposed_
  tee::TeeContext* tee_ctx_ = nullptr;  ///< not owned; outlives the engine
  std::string uuid_;
  std::vector<uint8_t> ta_image_;  ///< retained for reopen()'s re-deploy
  int64_t ta_image_bytes_ = 0;
  /// Guards the fault-handling counters a monitor may read cross-thread
  /// (retries/reopens) and the jitter PRNG both retry paths draw from.
  mutable Mutex mu_;
  int64_t retries_ TS_GUARDED_BY(mu_) = 0;
  int64_t reopens_ TS_GUARDED_BY(mu_) = 0;
  uint64_t jitter_state_ TS_GUARDED_BY(mu_) = 0;

  /// REE run-ahead hand-off. The calling thread seeds ree_records_ with the
  /// input record and posts a batch; the REE thread appends stage records;
  /// the caller swaps the buffer with in_flight_ for each invoke.
  Mutex ree_mu_;
  CondVar ree_cv_;
  /// The batch being run ahead; null while the REE thread is idle. Points
  /// at the caller's tensor, which run() keeps alive until idle.
  const Tensor* ree_batch_ TS_GUARDED_BY(ree_mu_) = nullptr;
  /// Records packed for the next kCmdRun, of which ree_staged_ are stages.
  std::vector<uint8_t> ree_records_ TS_GUARDED_BY(ree_mu_);
  int ree_staged_ TS_GUARDED_BY(ree_mu_) = 0;
  /// Largest per-image bytes seen of an input record and of a stage record
  /// (record bytes / n, rounded up); they set the byte bound.
  int64_t ree_input_bytes_ TS_GUARDED_BY(ree_mu_) = 0;
  int64_t ree_stage_bytes_ TS_GUARDED_BY(ree_mu_) = 0;
  std::exception_ptr ree_error_ TS_GUARDED_BY(ree_mu_);
  bool ree_cancel_ TS_GUARDED_BY(ree_mu_) = false;
  bool ree_stop_ TS_GUARDED_BY(ree_mu_) = false;
  /// The group being invoked: the caller's side of the two-buffer swap.
  std::vector<uint8_t> in_flight_;
  /// Started last in the constructor, after every member ree_loop reads.
  std::thread ree_thread_;
};

/// The trusted application built from a TA image (the bytes DeployedTBNet
/// and the baselines install). The image is parsed as hostile input, with
/// one bounded reader (tensor/bytes.h) for its framing and the model
/// streams inside it: a truncated or malformed image throws
/// std::runtime_error (nn::IntegrityError for a damaged block) instead of
/// reading past its end. Weight panels are packed when the TA is installed.
std::unique_ptr<tee::TrustedApp> make_tbnet_ta(
    const std::vector<uint8_t>& image);

/// Prior-art baselines: stages [0, first_tee_stage) in the REE, the rest in
/// the TEE. 0 puts the whole victim in the TEE (Full-TEE); a stage in
/// (0, size) is the DarkneTZ-style split. Other stages throw
/// std::invalid_argument.
class PartitionDeployment {
 public:
  PartitionDeployment(const nn::Sequential& victim, int first_tee_stage,
                      tee::TeeContext& ctx,
                      std::string uuid = "partition-tail");

  Tensor infer(const Tensor& image_chw);
  int64_t predict(const Tensor& image_chw);

  /// What an attacker monitoring REE memory observes entering the TEE — the
  /// exact input of the hidden layers. Combined with the logits the user
  /// receives, this is the training set for the substitute-layer attack.
  Tensor observable_tee_input(const Tensor& image_chw);

  int first_tee_stage() const { return first_tee_stage_; }

 private:
  std::vector<std::unique_ptr<nn::Layer>> head_;  // REE-resident stages
  std::unique_ptr<tee::TeeSession> session_;
  int first_tee_stage_ = 0;
};

}  // namespace tbnet::runtime
