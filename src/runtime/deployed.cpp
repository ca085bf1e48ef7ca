#include "runtime/deployed.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/fuse.h"
#include "tee/fault.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "tensor/bytes.h"
#include "tensor/ops.h"

namespace tbnet::runtime {
namespace {

using tee::kTeeErrorBadParameters;
using tee::kTeeErrorBadState;
using tee::kTeeSuccess;

constexpr int64_t kFloat = static_cast<int64_t>(sizeof(float));
constexpr int64_t kI64 = static_cast<int64_t>(sizeof(int64_t));

/// Bytes pack_tensor writes for `t`: rank, dims, then the floats.
int64_t tensor_bytes(const Tensor& t) {
  return kI64 * (1 + t.shape().ndim()) + kFloat * t.numel();
}

/// Per-image share of a `bytes`-byte record of an `n`-image batch, rounded
/// up so that n shares cover the record.
int64_t per_image(int64_t bytes, int64_t n) {
  n = std::max<int64_t>(n, 1);
  return (bytes + n - 1) / n;
}

/// Appends `t` as a record tensor: its dims as an i64 list, then the floats.
void put_tensor(std::vector<uint8_t>& buf, const Tensor& t) {
  buf.reserve(buf.size() + static_cast<size_t>(tensor_bytes(t)));
  put_i64s(buf, t.shape().dims());
  put_floats(buf, t.data(), t.numel());
}

/// Reads the dims that put_tensor wrote. Inside the TA the bytes are
/// REE-written, hence hostile: a negative dim, or dims whose product
/// overflows int64 (and so could wrap to a small element count), is
/// rejected before any data is read.
Shape read_dims(ByteReader& r) {
  std::vector<int64_t> dims = r.i64s("tensor dims");
  if (dims.size() > 8) throw std::runtime_error("tensor record: bad rank");
  int64_t numel = 1;
  for (const int64_t d : dims) {
    if (d < 0 || (d > 0 && numel > std::numeric_limits<int64_t>::max() / d)) {
      throw std::runtime_error("tensor record: bad dims");
    }
    numel *= d;
  }
  return Shape(std::move(dims));
}

/// Reads what put_tensor wrote.
Tensor read_tensor(ByteReader& r) {
  const Shape shape = read_dims(r);
  return Tensor(shape, r.floats(shape.numel(), "tensor data"));
}

/// Whether gather_channels of an R_i output of shape `s` through `map`
/// yields shape `want`, decided before anything is copied: R_i's output is
/// REE-written and the map comes from the image, so either may be forged.
/// `s` must match `want` in every dim but the channels, and every map entry
/// must name one of its channels.
bool gathers_to(const Shape& s, const std::vector<int64_t>& map,
                const Shape& want) {
  if (map.empty()) return s == want;
  if ((s.ndim() != 2 && s.ndim() != 4) || s.ndim() != want.ndim() ||
      static_cast<int64_t>(map.size()) != want.dim(1)) {
    return false;
  }
  for (int d = 0; d < s.ndim(); ++d) {
    if (d != 1 && s.dim(d) != want.dim(d)) return false;
  }
  return std::all_of(map.begin(), map.end(),
                     [&s](int64_t c) { return c >= 0 && c < s.dim(1); });
}

Tensor to_batch1(const Tensor& image_chw) {
  if (image_chw.shape().ndim() != 3) {
    throw std::invalid_argument("infer: expected a CHW image, got " +
                                image_chw.shape().str());
  }
  return image_chw.reshaped(Shape{1, image_chw.dim(0), image_chw.dim(1),
                                  image_chw.dim(2)});
}

// ------------------------------------------------------------------------
// TbnetTA: the one trusted application. DeployedTBNet installs M_T's
// stages; the Full-TEE and Partition baselines install victim layers as
// secure-only stages.
// ------------------------------------------------------------------------
class TbnetTA : public tee::TrustedApp {
 public:
  /// `image`: stage count, per stage (channel map, fused flag, block blob).
  /// Each block parses in place from its slice of the image.
  explicit TbnetTA(const std::vector<uint8_t>& image)
      : exec_ctx_(tee::World::kSecure) {
    ByteReader r(image);
    const int64_t stages = r.i64("stage count");
    if (stages <= 0 || stages > 4096) {
      throw std::runtime_error("TbnetTA: corrupt TA image (stage count)");
    }
    for (int64_t i = 0; i < stages; ++i) {
      maps_.push_back(r.i64s("channel map"));
      fused_flags_.push_back(r.i64("fused flag") != 0);
      ByteReader block(r.take(r.i64("block length"), "block"));
      blocks_.push_back(nn::load_model(block));
    }
  }

  void on_install(tee::TaContext& ctx) override {
    int64_t model_bytes = 0;
    for (const auto& b : blocks_) model_bytes += b->param_bytes();
    model_alloc_ = ctx.memory->allocate(model_bytes, "tbnet-ta/model");
    // DeployedTBNet's image ships pre-folded (build_tbnet_ta_image); what
    // remains is to pre-pack weight panels and build each block's fusion
    // plan. Packs are allocated from the TA's own context arena before any
    // forward runs, so they survive every per-call rewind.
    for (auto& block : blocks_) block->prepare_inference(exec_ctx_);
  }

  uint32_t invoke(uint32_t command, const std::vector<uint8_t>& in,
                  std::vector<uint8_t>& out, tee::TaContext& ctx) override {
    switch (command) {
      case kCmdRun:
        return run(in, out, ctx);

      case kCmdSetWidth: {
        // Intra-op width cap for the secure context's shards. A pure
        // scheduling hint: legal any time (even mid-pipeline), never
        // changes results, so no next_stage_ bookkeeping. The width is
        // REE-written, so it is range-checked before it narrows to int.
        const int64_t width = ByteReader(in).i64("width");
        if (width < 0 || width > std::numeric_limits<int>::max()) {
          return kTeeErrorBadParameters;
        }
        exec_ctx_.set_intra_op_width(static_cast<int>(width));
        return kTeeSuccess;
      }

      default:
        return kTeeErrorBadParameters;
    }
  }

 private:
  /// Executes one kCmdRun record stream (format: runtime/deployed.h). The
  /// stream is REE-written, hence hostile: an input record may only open
  /// it, stage records must continue the pipeline in order, and a release
  /// record must close it after the last fused stage. The release ends the
  /// batch, so a later stream must open with an input record again. A
  /// record cut short throws std::runtime_error. Records before a rejected
  /// one have run.
  uint32_t run(const std::vector<uint8_t>& in, std::vector<uint8_t>& out,
               tee::TaContext& ctx) {
    ByteReader r(in);
    while (r.left() > 0) {
      const bool first = r.pos() == 0;
      const int64_t tag = r.i64("record tag");
      switch (tag) {
        case kRecordInput:
          if (!first) return kTeeErrorBadState;
          acc_ = read_tensor(r);
          acc_alloc_ =
              ctx.memory->allocate(acc_.numel() * kFloat, "tbnet-ta/input");
          next_stage_ = 0;
          break;

        case kRecordStage: {
          const uint32_t status = push_stage(r, ctx);
          if (status != kTeeSuccess) return status;
          break;
        }

        case kRecordLogits:
        case kRecordLabels:
          if (r.left() != 0) return kTeeErrorBadParameters;
          if (!run_tail(ctx)) return kTeeErrorBadState;
          if (tag == kRecordLogits) {
            put_tensor(out, acc_);
          } else {
            put_i64s(out, argmax_rows(acc_));
          }
          // The batch leaves once: nothing of it stays for a later stream.
          next_stage_ = -1;
          acc_ = Tensor();
          acc_alloc_ = {};
          return kTeeSuccess;

        default:
          return kTeeErrorBadParameters;
      }
    }
    return kTeeSuccess;
  }

  /// One stage record's body: the stage index, then R_i's output, which is
  /// fused into the stored map after this stage's M_T block. R_i's dims and
  /// the stored map are checked against the stage's output shape before its
  /// floats are copied or the block runs, so a record that lies about its
  /// shape costs neither.
  uint32_t push_stage(ByteReader& r, tee::TaContext& ctx) {
    const int64_t stage = r.i64("stage index");
    if (next_stage_ < 0 || stage != next_stage_ ||
        stage >= static_cast<int64_t>(blocks_.size()) ||
        !fused_flags_[static_cast<size_t>(stage)]) {
      return kTeeErrorBadState;
    }
    nn::Layer& block = *blocks_[static_cast<size_t>(stage)];
    const std::vector<int64_t>& map = maps_[static_cast<size_t>(stage)];
    const Shape r_shape = read_dims(r);
    if (!gathers_to(r_shape, map, block.out_shape(acc_.shape()))) {
      return kTeeErrorBadParameters;
    }
    const Tensor r_out(r_shape, r.floats(r_shape.numel(), "tensor data"));
    // Working-set accounting: incoming REE contribution + stage output
    // live alongside the stored fused input during the stage.
    auto incoming_alloc =
        ctx.memory->allocate(r_out.numel() * kFloat, "tbnet-ta/incoming");
    Tensor out_t = block.forward(exec_ctx_, acc_, false);
    auto out_alloc =
        ctx.memory->allocate(out_t.numel() * kFloat, "tbnet-ta/out");
    // Fusion: select the REE channels aligned with our retained ones
    // (paper §3.5), then element-wise add (sharded on the TA context).
    add(exec_ctx_, out_t, core::gather_channels(r_out, map), out_t);
    // The new fused map replaces the previous one.
    acc_ = std::move(out_t);
    acc_alloc_ = std::move(out_alloc);
    next_stage_ = static_cast<int>(stage) + 1;
    return kTeeSuccess;
  }

  /// Advances through the trailing secure-only stages, which run with no
  /// REE contribution: TBNet's classifier head, or every stage of a
  /// baseline's image. Returns false unless every stage has then been
  /// executed.
  bool run_tail(tee::TaContext& ctx) {
    while (next_stage_ >= 0 &&
           next_stage_ < static_cast<int>(blocks_.size()) &&
           !fused_flags_[static_cast<size_t>(next_stage_)]) {
      Tensor out = blocks_[static_cast<size_t>(next_stage_)]->forward(
          exec_ctx_, acc_, false);
      auto alloc = ctx.memory->allocate(out.numel() * kFloat, "tbnet-ta/out");
      acc_ = std::move(out);
      acc_alloc_ = std::move(alloc);
      ++next_stage_;
    }
    return next_stage_ == static_cast<int>(blocks_.size());
  }

  std::vector<std::unique_ptr<nn::Layer>> blocks_;
  std::vector<std::vector<int64_t>> maps_;
  std::vector<bool> fused_flags_;
  ExecutionContext exec_ctx_;  ///< secure-world context; arena persists
  Tensor acc_;
  /// The next stage to run; -1 while no batch is in progress (before the
  /// first input record and after every release).
  int next_stage_ = -1;
  tee::SecureMemoryPool::Allocation model_alloc_, acc_alloc_;
};

void ta_check(uint32_t status, const char* what) {
  if (status != kTeeSuccess) {
    throw std::runtime_error(std::string("TA command failed: ") + what +
                             " (status " + std::to_string(status) + ")");
  }
}

/// Bounded retry for transient TEE faults (tee::TransientFault from the
/// context's FaultInjector, modeling a flaky world switch / channel hiccup).
/// Every fault site fires BEFORE the TA executes, so replaying the identical
/// command is side-effect free — see tee/fault.h. A tee::PermanentFault (and
/// any other exception) is never retried. After the last of kRetryAttempts
/// tries the engine throws, which serving surfaces as Status::kEngineError
/// for the batch — never a hang.
constexpr int kRetryAttempts = 4;
/// Backoff before retry k is uniform in [0, kBaseBackoffUs * 2^(k-1)]
/// ("full jitter"), capped at kMaxBackoffUs; deterministic per engine via
/// kJitterSeed.
constexpr int64_t kBaseBackoffUs = 50;
constexpr int64_t kMaxBackoffUs = 2000;
constexpr uint64_t kJitterSeed = 0x7e7;

/// Backoff ceiling before retry `attempt` (1-based count of failures so
/// far): base * 2^(attempt-1), capped at max. The actual sleep is uniform in
/// [0, ceiling] ("full jitter") so concurrent engines don't retry in step.
int64_t backoff_ceil_us(int attempt) {
  int64_t ceil_us = kBaseBackoffUs;
  for (int k = 1; k < attempt && ceil_us < kMaxBackoffUs; ++k) ceil_us *= 2;
  return std::min(ceil_us, kMaxBackoffUs);
}

/// Clones one branch block for deployment, folding inference-mode BatchNorm
/// into the adjacent convs (nn/fuse.h).
std::unique_ptr<nn::Layer> deployment_clone(const nn::Layer& block) {
  std::unique_ptr<nn::Layer> copy = block.clone();
  if (auto* seq = dynamic_cast<nn::Sequential*>(copy.get())) {
    nn::fold_batchnorm_inference(*seq);
  }
  return copy;
}

/// Builds a TbnetTA image: stage count, then per stage the channel map, the
/// fused flag and the serialized block. `blocks[i]` is stage i's frozen
/// block. For DeployedTBNet they are M_T's deployment clones (BN folded,
/// and int8-quantized when the engine ran a calibration batch — a quantized
/// block ships ~4x fewer weight bytes, so the measured TA image shrinks
/// accordingly) and `model` supplies each stage's map and flag. Without a
/// model every stage is secure-only: an empty map and fused flag 0.
std::vector<uint8_t> build_tbnet_ta_image(
    const std::vector<std::unique_ptr<nn::Layer>>& blocks,
    const core::TwoBranchModel* model = nullptr) {
  std::vector<uint8_t> image;
  put_i64(image, static_cast<int64_t>(blocks.size()));
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (model != nullptr) {
      const core::FusionStage& s = model->stage(static_cast<int>(i));
      put_i64s(image, s.channel_map);
      put_i64(image, s.fused ? 1 : 0);
    } else {
      put_i64(image, 0);  // map length
      put_i64(image, 0);  // fused flag
    }
    const size_t length_at = image.size();
    put_i64(image, 0);  // the block's length, patched in once it is written
    nn::save_model(image, *blocks[i]);
    put_at(image, length_at,
           static_cast<int64_t>(image.size() - length_at - sizeof(int64_t)));
  }
  return image;
}

}  // namespace

std::unique_ptr<tee::TrustedApp> make_tbnet_ta(
    const std::vector<uint8_t>& image) {
  return std::make_unique<TbnetTA>(image);
}

// --------------------------------------------------------- DeployedTBNet --

DeployedTBNet::DeployedTBNet(const core::TwoBranchModel& model,
                             tee::TeeContext& ctx, std::string uuid)
    : DeployedTBNet(model, ctx, std::move(uuid), Options{}) {}

DeployedTBNet::DeployedTBNet(const core::TwoBranchModel& model,
                             tee::TeeContext& ctx, std::string uuid,
                             Options opt)
    : opt_(std::move(opt)),
      exec_ctx_(tee::World::kNormal),
      tee_ctx_(&ctx),
      uuid_(std::move(uuid)) {
  if (opt_.max_batch <= 0) {
    throw std::invalid_argument("DeployedTBNet: max_batch must be positive");
  }
  // Freeze both branches up front: every block is cloned and BN-folded
  // BEFORE the TA image serializes, so quantization (which rewrites the
  // frozen folded weights) lands in the shipped payload.
  std::vector<std::unique_ptr<nn::Layer>> secure;
  std::vector<nn::Layer*> exposed_by_stage(
      static_cast<size_t>(model.num_stages()), nullptr);
  for (int i = 0; i < model.num_stages(); ++i) {
    const core::FusionStage& s = model.stage(i);
    secure.push_back(deployment_clone(*s.secure));
    // Only fused stages execute REE-side; non-fused (head) stages live
    // solely in the TA.
    if (s.fused) {
      exposed_.push_back(deployment_clone(*s.exposed));
      exposed_by_stage[static_cast<size_t>(i)] = exposed_.back().get();
    }
  }
  if (opt_.calibration.numel() > 0) {
    if (opt_.calibration.shape().ndim() != 4) {
      throw std::invalid_argument(
          "DeployedTBNet: calibration batch must be NCHW");
    }
    // Post-training quantization over the true serving dataflow: the REE
    // chain threads through the exposed clones, the TEE chain through the
    // secure ones, with the per-stage gather+add fusion in between — so
    // each conv observes exactly the input distribution it will see while
    // serving. quantize_for_inference runs every block in f32 first and
    // quantizes after, keeping downstream calibration statistics clean.
    Tensor ree = opt_.calibration;
    Tensor tee = opt_.calibration;
    for (int i = 0; i < model.num_stages(); ++i) {
      const core::FusionStage& s = model.stage(i);
      Tensor t_out = nn::quantize_for_inference(
          *secure[static_cast<size_t>(i)], exec_ctx_, tee);
      if (s.fused) {
        ree = nn::quantize_for_inference(
            *exposed_by_stage[static_cast<size_t>(i)], exec_ctx_, ree);
        Tensor aligned = core::gather_channels(ree, s.channel_map);
        if (aligned.shape() != t_out.shape()) {
          throw std::invalid_argument(
              "DeployedTBNet: calibration fusion shape mismatch at stage " +
              std::to_string(i));
        }
        add(exec_ctx_, t_out, aligned, t_out);
      }
      tee = std::move(t_out);
    }
  }
  // The image bytes are retained so reopen() can re-deploy the TA after a
  // permanent secure-world loss without re-freezing the model.
  ta_image_ = build_tbnet_ta_image(secure, &model);
  ta_image_bytes_ = static_cast<int64_t>(ta_image_.size());
  tee_ctx_->world().install(uuid_, make_tbnet_ta(ta_image_));
  jitter_state_ = kJitterSeed;
  open_session_with_retry();
  // Pre-pack the REE weight panels (f32 or int8) into this engine's
  // long-lived arena, so the serving hot path runs folded, fused, and
  // pack-free.
  for (auto& block : exposed_) block->prepare_inference(exec_ctx_);
  // Last: nothing after this may throw, or the joinable thread would
  // terminate the process as the half-built engine unwinds.
  ree_thread_ = std::thread([this] { ree_loop(); });
}

DeployedTBNet::~DeployedTBNet() {
  {
    MutexLock lock(ree_mu_);
    ree_stop_ = true;
  }
  ree_cv_.notify_all();
  ree_thread_.join();
}

int64_t DeployedTBNet::world_switches() const {
  return session_->world_switches();
}

template <typename Attempt>
void DeployedTBNet::with_retry(const char* what, Attempt attempt) {
  for (int tried = 1;; ++tried) {
    try {
      attempt();
      return;
    } catch (const tee::TransientFault& e) {
      // Safe to replay: every injection site fires before the TA executes
      // (tee/fault.h), so the attempt had no secure-world effect.
      if (tried >= kRetryAttempts) {
        throw std::runtime_error(std::string(what) + " failed after " +
                                 std::to_string(kRetryAttempts) +
                                 " attempts: " + e.what());
      }
      const int64_t ceil_us = backoff_ceil_us(tried);
      int64_t sleep_us = 0;
      {
        // Count the retry and draw the jitter under the lock; the backoff
        // sleep itself must not hold it (a monitor polling retries() would
        // block for the whole backoff otherwise).
        MutexLock lock(mu_);
        ++retries_;
        if (ceil_us > 0) {
          sleep_us = static_cast<int64_t>(
              next_jitter() % static_cast<uint64_t>(ceil_us + 1));
        }
      }
      if (sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
    }
    // tee::PermanentFault and every other exception propagate immediately:
    // retrying cannot help, serving maps them to Status::kEngineError.
  }
}

void DeployedTBNet::open_session_with_retry() {
  // The result cap scales with the batch so [N, classes] logits may leave;
  // the per-image budget is the single-image default.
  with_retry("DeployedTBNet: open_session", [this] {
    session_ = std::make_unique<tee::TeeSession>(tee_ctx_->open_session(
        uuid_, opt_.max_batch * tee::kDefaultMaxResultBytes));
  });
}

void DeployedTBNet::reopen(const Tensor& canary_nchw) {
  // Tear down first: the dead session must not survive a failed recovery,
  // or the next infer would talk to the torn-down TA instead of failing.
  session_.reset();
  // Re-install from the retained image. TbnetTA re-parses every blob via
  // nn::load_model, which re-verifies the v4 header and per-layer checksums
  // — a corrupted image throws nn::IntegrityError here, at deploy time.
  tee_ctx_->world().install(uuid_, make_tbnet_ta(ta_image_));
  open_session_with_retry();
  if (canary_nchw.numel() > 0) {
    // Canary verification: the recovered worker must produce sane logits
    // before it re-enters a dispatch pool. Shape and finiteness are the
    // checks available without golden outputs.
    const Tensor logits = infer_batch(canary_nchw);
    const bool shape_ok = logits.shape().ndim() == 2 &&
                          logits.dim(0) == canary_nchw.dim(0) &&
                          logits.dim(1) > 0;
    bool finite = true;
    for (int64_t i = 0; i < logits.numel(); ++i) {
      if (!std::isfinite(logits.data()[i])) {
        finite = false;
        break;
      }
    }
    if (!shape_ok || !finite) {
      throw std::runtime_error(
          "DeployedTBNet::reopen: canary inference produced " +
          std::string(shape_ok ? "non-finite logits" : "bad logit shape") +
          " — recovery rejected");
    }
  }
  MutexLock lock(mu_);
  ++reopens_;
}

uint64_t DeployedTBNet::next_jitter() {
  // splitmix64 over the engine's own state: deterministic per kJitterSeed.
  uint64_t z = (jitter_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void DeployedTBNet::invoke_with_retry(uint32_t command,
                                      const std::vector<uint8_t>& in,
                                      std::vector<uint8_t>* out,
                                      const char* what) {
  with_retry(what, [&] { ta_check(session_->invoke(command, in, out), what); });
}

std::vector<uint8_t> DeployedTBNet::run(const Tensor& batch_nchw,
                                        int64_t release) {
  if (batch_nchw.shape().ndim() != 4) {
    throw std::invalid_argument("infer_batch: expected NCHW, got " +
                                batch_nchw.shape().str());
  }
  if (batch_nchw.dim(0) > opt_.max_batch) {
    throw std::invalid_argument(
        "infer_batch: batch " + std::to_string(batch_nchw.dim(0)) +
        " exceeds max_batch " + std::to_string(opt_.max_batch));
  }
  {
    // stop_ree() left the buffer, the stage count and the error empty
    // after the last batch.
    MutexLock lock(ree_mu_);
    const int64_t bytes = kI64 + tensor_bytes(batch_nchw);
    ree_input_bytes_ =
        std::max(ree_input_bytes_, per_image(bytes, batch_nchw.dim(0)));
    reserve_record(bytes);
    put_i64(ree_records_, kRecordInput);
    put_tensor(ree_records_, batch_nchw);
    ree_batch_ = &batch_nchw;
    ree_cancel_ = false;
  }
  ree_cv_.notify_all();
  // Each invoke carries every record packed since the last one, while the
  // REE runs the following stages ahead of it.
  std::vector<uint8_t> result;
  try {
    const int stages = num_stages();
    int sent = 0;
    do {
      {
        MutexLock lock(ree_mu_);
        ree_cv_.wait(lock, [this, stages] {
          ree_mu_.assert_held();  // wait re-acquires ree_mu_ before evaluating
          return ree_staged_ > 0 || ree_error_ != nullptr || stages == 0;
        });
        if (ree_error_) std::rethrow_exception(ree_error_);
        sent += ree_staged_;
        ree_staged_ = 0;
        in_flight_.clear();
        ree_records_.swap(in_flight_);
      }
      ree_cv_.notify_all();  // nothing waits now: the REE may run ahead
      const bool last = sent == stages;
      if (last) put_i64(in_flight_, release);
      invoke_with_retry(kCmdRun, in_flight_, last ? &result : nullptr, "Run");
    } while (sent < stages);
  } catch (...) {
    stop_ree();
    throw;
  }
  stop_ree();
  return result;
}

bool DeployedTBNet::may_run_ahead(int64_t n) const {
  return ree_staged_ == 0 ||
         static_cast<int64_t>(ree_records_.size()) + n * ree_stage_bytes_ <=
             ree_stage_bytes_ * opt_.max_batch;
}

void DeployedTBNet::reserve_record(int64_t bytes) {
  // A stream holds the input record and one stage record (nothing was
  // waiting), or stage records within the byte bound; then the release
  // record. Both fit max_batch images' worth of input and stage bytes.
  const size_t need = ree_records_.size() + static_cast<size_t>(bytes + kI64);
  if (ree_records_.capacity() >= need) return;
  const auto bound = static_cast<size_t>(
      opt_.max_batch * (ree_input_bytes_ + ree_stage_bytes_) + kI64);
  ree_records_.reserve(std::max(need, bound));
}

void DeployedTBNet::ree_loop() {
  MutexLock lock(ree_mu_);
  for (;;) {
    ree_cv_.wait(lock, [this] {
      ree_mu_.assert_held();  // wait re-acquires ree_mu_ before evaluating
      return ree_stop_ || ree_batch_ != nullptr;
    });
    if (ree_stop_) return;
    const Tensor* batch = ree_batch_;
    const int64_t n = batch->dim(0);
    Tensor x;
    for (size_t i = 0; i < exposed_.size(); ++i) {
      // Bounded run-ahead: stage i starts once the byte bound allows it.
      ree_cv_.wait(lock, [this, n] {
        ree_mu_.assert_held();  // wait re-acquires ree_mu_ before evaluating
        return ree_cancel_ || may_run_ahead(n);
      });
      if (ree_cancel_) break;
      lock.unlock();
      std::exception_ptr error;
      try {
        x = exposed_[i]->forward(exec_ctx_, i == 0 ? *batch : x, false);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (!error) {
        // Packed under the lock: the caller swaps only whole records out.
        try {
          const int64_t bytes = 2 * kI64 + tensor_bytes(x);
          ree_stage_bytes_ = std::max(ree_stage_bytes_, per_image(bytes, n));
          reserve_record(bytes);
          put_i64(ree_records_, kRecordStage);
          put_i64(ree_records_, static_cast<int64_t>(i));
          put_tensor(ree_records_, x);
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error) {
        ree_error_ = error;
        break;
      }
      ++ree_staged_;
      ree_cv_.notify_all();
    }
    // Idle: exec_ctx_ and the batch are the caller's again.
    ree_batch_ = nullptr;
    ree_cv_.notify_all();
  }
}

void DeployedTBNet::stop_ree() {
  MutexLock lock(ree_mu_);
  ree_cancel_ = true;
  ree_cv_.notify_all();
  ree_cv_.wait(lock, [this] {
    ree_mu_.assert_held();  // wait re-acquires ree_mu_ before evaluating
    return ree_batch_ == nullptr;
  });
  ree_records_.clear();
  ree_staged_ = 0;
  ree_error_ = nullptr;
}

Tensor DeployedTBNet::infer_batch(const Tensor& batch_nchw) {
  const std::vector<uint8_t> result = run(batch_nchw, kRecordLogits);
  ByteReader r(result);
  return read_tensor(r);
}

Tensor DeployedTBNet::infer(const Tensor& image_chw) {
  return infer_batch(to_batch1(image_chw));
}

int64_t DeployedTBNet::predict(const Tensor& image_chw) {
  return predict_batch(to_batch1(image_chw)).front();
}

std::vector<int64_t> DeployedTBNet::predict_batch(const Tensor& batch_nchw) {
  const std::vector<uint8_t> result = run(batch_nchw, kRecordLabels);
  std::vector<int64_t> labels = ByteReader(result).i64s("labels");
  if (static_cast<int64_t>(labels.size()) != batch_nchw.dim(0)) {
    throw std::runtime_error("predict_batch: label count mismatch");
  }
  return labels;
}

// ---------------------------------------------------- PartitionDeployment --

PartitionDeployment::PartitionDeployment(const nn::Sequential& victim,
                                         int first_tee_stage,
                                         tee::TeeContext& ctx,
                                         std::string uuid)
    : first_tee_stage_(first_tee_stage) {
  if (first_tee_stage < 0 || first_tee_stage >= victim.size()) {
    throw std::invalid_argument(
        "PartitionDeployment: first_tee_stage out of range");
  }
  // The TEE's layers ship as a secure-only image, one stage per layer, as
  // plain clones with BN unfolded, so the TA's logits stay bitwise equal to
  // victim.forward.
  std::vector<std::unique_ptr<nn::Layer>> tail;
  for (int i = 0; i < victim.size(); ++i) {
    (i < first_tee_stage ? head_ : tail).push_back(victim.layer(i).clone());
  }
  ctx.world().install(uuid, make_tbnet_ta(build_tbnet_ta_image(tail)));
  session_ = std::make_unique<tee::TeeSession>(ctx.open_session(uuid));
}

Tensor PartitionDeployment::observable_tee_input(const Tensor& image_chw) {
  Tensor x = to_batch1(image_chw);
  for (auto& l : head_) x = l->forward(x, false);
  return x;
}

Tensor PartitionDeployment::infer(const Tensor& image_chw) {
  // One kCmdRun: the input record, then the release record. The TA runs
  // every stage and returns the logits.
  std::vector<uint8_t> records;
  put_i64(records, kRecordInput);
  put_tensor(records, observable_tee_input(image_chw));
  put_i64(records, kRecordLogits);
  std::vector<uint8_t> result;
  ta_check(session_->invoke(kCmdRun, records, &result), "Run");
  ByteReader r(result);
  return read_tensor(r);
}

int64_t PartitionDeployment::predict(const Tensor& image_chw) {
  return infer(image_chw).argmax();
}

}  // namespace tbnet::runtime
