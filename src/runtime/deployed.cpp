#include "runtime/deployed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/fuse.h"
#include "tee/fault.h"
#include "nn/quant.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace tbnet::runtime {
namespace {

using tee::kTeeErrorBadParameters;
using tee::kTeeErrorBadState;
using tee::kTeeSuccess;
using tee::pack_floats;
using tee::pack_i64;
using tee::unpack_floats;
using tee::unpack_i64;

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

void pack_tensor(std::vector<uint8_t>& buf, const Tensor& t) {
  buf.reserve(buf.size() + static_cast<size_t>(tensor_bytes(t)));
  pack_i64(buf, t.shape().ndim());
  for (int64_t d : t.shape().dims()) pack_i64(buf, d);
  pack_floats(buf, t.data(), t.numel());
}

/// Parses a tensor header + data. Inside the TA `buf` is REE-written, hence
/// hostile: a negative dim, or dims whose product overflows int64 (and so
/// could wrap to a small element count), is rejected before any data is
/// read.
Tensor unpack_tensor(const std::vector<uint8_t>& buf, size_t* offset) {
  const int64_t rank = unpack_i64(buf, offset);
  if (rank < 0 || rank > 8) throw std::out_of_range("unpack_tensor: bad rank");
  std::vector<int64_t> dims;
  int64_t numel = 1;
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t d = unpack_i64(buf, offset);
    if (d < 0 || (d > 0 && numel > std::numeric_limits<int64_t>::max() / d)) {
      throw std::out_of_range("unpack_tensor: bad dims");
    }
    numel *= d;
    dims.push_back(d);
  }
  std::vector<float> data = unpack_floats(buf, offset, numel);
  return Tensor(Shape(dims), std::move(data));
}

/// Bytes of `image` not yet parsed past `off`.
int64_t remaining(const std::vector<uint8_t>& image, size_t off) {
  return off < image.size() ? static_cast<int64_t>(image.size() - off) : 0;
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
  explicit TbnetTA(const std::vector<uint8_t>& image)
      : exec_ctx_(tee::World::kSecure) {
    size_t off = 0;
    const int64_t stages = unpack_i64(image, &off);
    if (stages <= 0 || stages > 4096) {
      throw std::runtime_error("TbnetTA: corrupt TA image (stage count)");
    }
    for (int64_t i = 0; i < stages; ++i) {
      // Lengths are checked against the bytes that remain before anything
      // is sliced: a negative or oversized length must not read past the
      // image.
      const int64_t map_len = unpack_i64(image, &off);
      if (map_len < 0 || map_len > remaining(image, off) / kI64) {
        throw std::out_of_range("TbnetTA: corrupt TA image (map length)");
      }
      std::vector<int64_t> map;
      for (int64_t j = 0; j < map_len; ++j) map.push_back(unpack_i64(image, &off));
      fused_flags_.push_back(unpack_i64(image, &off) != 0);
      const int64_t blob_len = unpack_i64(image, &off);
      if (blob_len < 0 || blob_len > remaining(image, off)) {
        throw std::out_of_range("TbnetTA: corrupt TA image (block length)");
      }
      std::string blob(reinterpret_cast<const char*>(image.data()) +
                           static_cast<std::ptrdiff_t>(off),
                       static_cast<size_t>(blob_len));
      off += static_cast<size_t>(blob_len);
      std::istringstream is(blob, std::ios::binary);
      blocks_.push_back(nn::load_model(is));
      maps_.push_back(std::move(map));
    }
    // DeployedTBNet's image ships pre-folded (build_tbnet_ta_image); what
    // remains is to pre-pack weight panels and build each block's fusion
    // plan. Packs are allocated from the TA's own context arena before any
    // forward runs, so they survive every per-call rewind.
    for (auto& block : blocks_) block->prepare_inference(exec_ctx_);
  }

  void on_install(tee::TaContext& ctx) override {
    int64_t model_bytes = 0;
    for (const auto& b : blocks_) model_bytes += b->param_bytes();
    model_alloc_ = ctx.memory->allocate(model_bytes, "tbnet-ta/model");
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
        size_t off = 0;
        const int64_t width = unpack_i64(in, &off);
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
  /// record cut short throws std::out_of_range. Records before a rejected
  /// one have run.
  uint32_t run(const std::vector<uint8_t>& in, std::vector<uint8_t>& out,
               tee::TaContext& ctx) {
    size_t off = 0;
    while (off < in.size()) {
      const bool first = off == 0;
      const int64_t tag = unpack_i64(in, &off);
      switch (tag) {
        case kRecordInput:
          if (!first) return kTeeErrorBadState;
          acc_ = unpack_tensor(in, &off);
          acc_alloc_ =
              ctx.memory->allocate(acc_.numel() * kFloat, "tbnet-ta/input");
          next_stage_ = 0;
          break;

        case kRecordStage: {
          const uint32_t status = push_stage(in, &off, ctx);
          if (status != kTeeSuccess) return status;
          break;
        }

        case kRecordLogits:
        case kRecordLabels:
          if (off != in.size()) return kTeeErrorBadParameters;
          if (!run_tail(ctx)) return kTeeErrorBadState;
          if (tag == kRecordLogits) {
            pack_tensor(out, acc_);
          } else {
            const std::vector<int64_t> labels = argmax_rows(acc_);
            pack_i64(out, static_cast<int64_t>(labels.size()));
            for (int64_t label : labels) pack_i64(out, label);
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

  /// One stage record's body at `*off`: the stage index, then R_i's output,
  /// which is fused into the stored map after this stage's M_T block.
  uint32_t push_stage(const std::vector<uint8_t>& in, size_t* off,
                      tee::TaContext& ctx) {
    const int64_t stage = unpack_i64(in, off);
    if (next_stage_ < 0 || stage != next_stage_ ||
        stage >= static_cast<int64_t>(blocks_.size()) ||
        !fused_flags_[static_cast<size_t>(stage)]) {
      return kTeeErrorBadState;
    }
    const Tensor r_out = unpack_tensor(in, off);
    // Working-set accounting: incoming REE contribution + stage output
    // live alongside the stored fused input during the stage.
    auto incoming_alloc =
        ctx.memory->allocate(r_out.numel() * kFloat, "tbnet-ta/incoming");
    Tensor out_t = blocks_[static_cast<size_t>(stage)]->forward(
        exec_ctx_, acc_, false);
    auto out_alloc =
        ctx.memory->allocate(out_t.numel() * kFloat, "tbnet-ta/out");
    // Fusion: select the REE channels aligned with our retained ones
    // (paper §3.5), then element-wise add (sharded on the TA context).
    Tensor aligned =
        core::gather_channels(r_out, maps_[static_cast<size_t>(stage)]);
    if (aligned.shape() != out_t.shape()) return kTeeErrorBadParameters;
    add(exec_ctx_, out_t, aligned, out_t);
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

std::vector<uint8_t> serialize_blob(const nn::Layer& layer) {
  std::ostringstream os(std::ios::binary);
  nn::save_model(os, layer);
  const std::string s = os.str();
  return std::vector<uint8_t>(s.begin(), s.end());
}

void ta_check(uint32_t status, const char* what) {
  if (status != kTeeSuccess) {
    throw std::runtime_error(std::string("TA command failed: ") + what +
                             " (status " + std::to_string(status) + ")");
  }
}

/// Backoff ceiling before retry `attempt` (1-based count of failures so
/// far): base * 2^(attempt-1), capped at max. The actual sleep is uniform in
/// [0, ceiling] ("full jitter") so concurrent engines don't retry in step.
int64_t backoff_ceil_us(const DeployedTBNet::Options::RetryPolicy& rp,
                        int attempt) {
  int64_t ceil_us = std::max<int64_t>(rp.base_backoff.count(), 0);
  for (int k = 1; k < attempt && ceil_us < rp.max_backoff.count(); ++k) {
    ceil_us *= 2;
  }
  return std::min<int64_t>(ceil_us, std::max<int64_t>(rp.max_backoff.count(), 0));
}

/// Clones one branch block for deployment, folding inference-mode BatchNorm
/// into the adjacent convs — including depthwise convs since the model format
/// grew a depthwise bias (nn/fuse.h).
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
  pack_i64(image, static_cast<int64_t>(blocks.size()));
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (model != nullptr) {
      const core::FusionStage& s = model->stage(static_cast<int>(i));
      pack_i64(image, static_cast<int64_t>(s.channel_map.size()));
      for (int64_t v : s.channel_map) pack_i64(image, v);
      pack_i64(image, s.fused ? 1 : 0);
    } else {
      pack_i64(image, 0);  // map length
      pack_i64(image, 0);  // fused flag
    }
    const std::vector<uint8_t> blob = serialize_blob(*blocks[i]);
    pack_i64(image, static_cast<int64_t>(blob.size()));
    image.insert(image.end(), blob.begin(), blob.end());
  }
  return image;
}

/// The baselines' TA: installs victim layers [first, size) under `uuid` as
/// a secure-only image, one stage per layer, and opens a session on it.
/// The layers ship as plain clones, BN unfolded, so the TA's logits stay
/// bitwise equal to victim.forward.
std::unique_ptr<tee::TeeSession> install_secure_layers(
    const nn::Sequential& victim, int first, tee::TeeContext& ctx,
    const std::string& uuid) {
  std::vector<std::unique_ptr<nn::Layer>> layers;
  for (int i = first; i < victim.size(); ++i) {
    layers.push_back(victim.layer(i).clone());
  }
  ctx.world().install(uuid, make_tbnet_ta(build_tbnet_ta_image(layers)));
  return std::make_unique<tee::TeeSession>(ctx.open_session(uuid));
}

/// Runs `x` through a secure-only image in one kCmdRun: the input record,
/// then the release record. The TA runs every stage and returns the logits.
Tensor run_secure_layers(tee::TeeSession& session, const Tensor& x) {
  std::vector<uint8_t> records;
  pack_i64(records, kRecordInput);
  pack_tensor(records, x);
  pack_i64(records, kRecordLogits);
  std::vector<uint8_t> result;
  ta_check(session.invoke(kCmdRun, records, &result), "Run");
  size_t off = 0;
  return unpack_tensor(result, &off);
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
  jitter_state_ = opt_.retry.jitter_seed;
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
  const int attempts = std::max(opt_.retry.max_attempts, 1);
  for (int tried = 1;; ++tried) {
    try {
      attempt();
      return;
    } catch (const tee::TransientFault& e) {
      // Safe to replay: every injection site fires before the TA executes
      // (tee/fault.h), so the attempt had no secure-world effect.
      if (tried >= attempts) {
        throw std::runtime_error(std::string(what) + " failed after " +
                                 std::to_string(attempts) +
                                 " attempts: " + e.what());
      }
      const int64_t ceil_us = backoff_ceil_us(opt_.retry, tried);
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
  // The fresh TA starts uncapped; restore the engine's width so a recovered
  // worker shards exactly like it did before the loss.
  if (intra_op_width_ > 0) {
    std::vector<uint8_t> payload;
    pack_i64(payload, intra_op_width_);
    invoke_with_retry(kCmdSetWidth, payload, nullptr, "SetWidth");
  }
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

void DeployedTBNet::set_intra_op_width(int width) {
  intra_op_width_ = width > 0 ? width : 0;
  exec_ctx_.set_intra_op_width(intra_op_width_);
  // Mirror the cap into the TA so the secure-world shards respect it too.
  std::vector<uint8_t> payload;
  pack_i64(payload, intra_op_width_);
  invoke_with_retry(kCmdSetWidth, payload, nullptr, "SetWidth");
}

uint64_t DeployedTBNet::next_jitter() {
  // splitmix64 over the engine's own state: deterministic per jitter_seed.
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
    pack_i64(ree_records_, kRecordInput);
    pack_tensor(ree_records_, batch_nchw);
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
      if (last) pack_i64(in_flight_, release);
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
          pack_i64(ree_records_, kRecordStage);
          pack_i64(ree_records_, static_cast<int64_t>(i));
          pack_tensor(ree_records_, x);
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
  size_t off = 0;
  return unpack_tensor(result, &off);
}

Tensor DeployedTBNet::infer(const Tensor& image_chw) {
  return infer_batch(to_batch1(image_chw));
}

int64_t DeployedTBNet::predict(const Tensor& image_chw) {
  return predict_batch(to_batch1(image_chw)).front();
}

std::vector<int64_t> DeployedTBNet::predict_batch(const Tensor& batch_nchw) {
  const std::vector<uint8_t> result = run(batch_nchw, kRecordLabels);
  size_t off = 0;
  const int64_t count = unpack_i64(result, &off);
  if (count != batch_nchw.dim(0)) {
    throw std::runtime_error("predict_batch: label count mismatch");
  }
  std::vector<int64_t> labels(static_cast<size_t>(count));
  for (int64_t& label : labels) label = unpack_i64(result, &off);
  return labels;
}

// ------------------------------------------------------ FullTeeDeployment --

FullTeeDeployment::FullTeeDeployment(const nn::Sequential& victim,
                                     tee::TeeContext& ctx, std::string uuid)
    : session_(install_secure_layers(victim, 0, ctx, uuid)) {}

Tensor FullTeeDeployment::infer(const Tensor& image_chw) {
  return run_secure_layers(*session_, to_batch1(image_chw));
}

int64_t FullTeeDeployment::predict(const Tensor& image_chw) {
  return infer(image_chw).argmax();
}

// ---------------------------------------------------- PartitionDeployment --

PartitionDeployment::PartitionDeployment(const nn::Sequential& victim,
                                         int first_tee_stage,
                                         tee::TeeContext& ctx,
                                         std::string uuid)
    : first_tee_stage_(first_tee_stage) {
  if (first_tee_stage <= 0 || first_tee_stage >= victim.size()) {
    throw std::invalid_argument(
        "PartitionDeployment: first_tee_stage out of range");
  }
  session_ = install_secure_layers(victim, first_tee_stage, ctx, uuid);
  for (int i = 0; i < first_tee_stage; ++i) {
    head_.push_back(victim.layer(i).clone());
  }
}

Tensor PartitionDeployment::observable_tee_input(const Tensor& image_chw) {
  Tensor x = to_batch1(image_chw);
  for (auto& l : head_) x = l->forward(x, false);
  return x;
}

Tensor PartitionDeployment::infer(const Tensor& image_chw) {
  return run_secure_layers(*session_, observable_tee_input(image_chw));
}

int64_t PartitionDeployment::predict(const Tensor& image_chw) {
  return infer(image_chw).argmax();
}

}  // namespace tbnet::runtime
