// Tests for the deployment runtime: footprint measurement, the TBNet TA,
// the full-TEE and partition baselines, and the security invariants they
// must satisfy inside the simulated device.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <typeinfo>

#include "core/knowledge_transfer.h"
#include "core/pruner.h"
#include "core/rollback.h"
#include "models/model_zoo.h"
#include "nn/conv2d.h"
#include "nn/fuse.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "runtime/measurements.h"
#include "tee/cost_model.h"
#include "tensor/ops.h"

namespace tbnet::runtime {
namespace {

models::ModelConfig tiny_vgg_cfg() {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 9;
  return cfg;
}

TEST(Measurements, VictimFootprintConsistency) {
  nn::Sequential victim = models::build_victim(tiny_vgg_cfg());
  const VictimFootprint fp = measure_victim(victim, Shape{3, 32, 32});
  EXPECT_EQ(fp.model_bytes, victim.param_bytes());
  EXPECT_EQ(fp.stage_macs.size(), static_cast<size_t>(victim.size()));
  EXPECT_EQ(fp.input_bytes, 3 * 32 * 32 * 4);
  int64_t total_macs = 0;
  for (int64_t m : fp.stage_macs) total_macs += m;
  EXPECT_EQ(total_macs, victim.macs(Shape{1, 3, 32, 32}));
  EXPECT_GT(fp.activation_peak, 0);
  EXPECT_EQ(fp.total_bytes, fp.model_bytes + fp.activation_peak);
}

TEST(Measurements, TwoBranchFootprintConsistency) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const TwoBranchFootprint fp = measure_two_branch(tb, Shape{3, 32, 32});
  EXPECT_EQ(fp.stages.size(), static_cast<size_t>(tb.num_stages()));
  EXPECT_EQ(fp.secure_model_bytes, tb.secure_param_bytes());
  EXPECT_EQ(fp.exposed_model_bytes, tb.exposed_param_bytes());
  // Transfers: one feature map per fused stage; the head stage is not fused
  // (no REE execution, no transfer) — the TBNet output comes from M_T alone.
  int64_t sum = 0;
  for (size_t i = 0; i < fp.stages.size(); ++i) {
    const auto& s = fp.stages[i];
    EXPECT_GT(s.secure_macs, 0);
    if (tb.stage(static_cast<int>(i)).fused) {
      EXPECT_GT(s.transfer_bytes, 0);
      EXPECT_GT(s.exposed_macs, 0);
    } else {
      EXPECT_EQ(s.transfer_bytes, 0);
      EXPECT_EQ(s.exposed_macs, 0);
    }
    sum += s.transfer_bytes;
  }
  EXPECT_FALSE(tb.stage(tb.num_stages() - 1).fused);
  EXPECT_EQ(sum, fp.total_transfer_bytes);
  EXPECT_EQ(fp.secure_total_bytes,
            fp.secure_model_bytes + fp.secure_activation_peak);
}

TEST(Measurements, PrunedSecureBranchShrinksFootprint) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const int64_t before =
      measure_two_branch(tb, Shape{3, 32, 32}).secure_total_bytes;
  // Halve every interface.
  for (const auto& point : models::prune_points(cfg)) {
    const core::ResolvedPoint rp = core::resolve_point(tb, point);
    std::vector<int64_t> keep;
    for (int64_t c = 0; c < rp.bn_secure->channels(); c += 2) keep.push_back(c);
    core::apply_channel_keep(tb, point, keep);
  }
  const int64_t after =
      measure_two_branch(tb, Shape{3, 32, 32}).secure_total_bytes;
  EXPECT_LT(after, before);
}

/// Prunes every interface to 3/4 width, then rolls back, so the deployed
/// channel maps are not the identity.
void prune_with_rollback(core::TwoBranchModel& tb,
                         const models::ModelConfig& cfg) {
  const auto points = models::prune_points(cfg);
  core::TwoBranchModel snapshot = tb.clone();
  std::vector<std::vector<int64_t>> last_keep;
  for (const auto& point : points) {
    const core::ResolvedPoint rp = core::resolve_point(tb, point);
    std::vector<int64_t> keep;
    for (int64_t c = 0; c < rp.bn_secure->channels(); ++c) {
      if (c % 4 != 1) keep.push_back(c);
    }
    core::apply_channel_keep(tb, point, keep);
    last_keep.push_back(keep);
  }
  core::rollback_finalize(tb, std::move(snapshot), points, last_keep);
}

TEST(DeployedTBNet, MatchesInProcessInference) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);

  // The engine deploys with BN folded into the conv weights and fused GEMM
  // epilogues, so it matches the in-process forward to tight relative
  // tolerance rather than bitwise, in both kernel modes (folding changes the
  // weights' bits; TBNET_DETERMINISTIC=1 only pins the scalar tier).
  Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    Tensor img = Tensor::randn(Shape{3, 32, 32}, rng);
    Tensor want = tb.forward(img.reshaped(Shape{1, 3, 32, 32}), false);
    Tensor got = deployed.infer(img);
    EXPECT_TRUE(allclose(got, want, 1e-4f, 1e-5f)) << "inference " << i;
    EXPECT_EQ(deployed.predict(img), want.argmax());
  }
}

TEST(DeployedTBNet, WorksAfterPruneAndRollback) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  prune_with_rollback(tb, cfg);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(6);
  Tensor img = Tensor::randn(Shape{3, 32, 32}, rng);
  Tensor want = tb.forward(img.reshaped(Shape{1, 3, 32, 32}), false);
  EXPECT_TRUE(allclose(deployed.infer(img), want, 1e-4f, 1e-5f));
}

TEST(DeployedTBNet, ChannelAccountingAndOneWayHold) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const TwoBranchFootprint fp = measure_two_branch(tb, Shape{3, 32, 32});

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  Rng rng(7);
  deployed.infer(Tensor::randn(Shape{3, 32, 32}, rng));

  // All pushes went into the TEE; nothing leaked out.
  EXPECT_EQ(ctx.channel().leaked_bytes(), 0);
  EXPECT_GT(ctx.channel().bytes_into_tee(), 0);
  // Feature-map payloads dominate; the channel must carry at least the raw
  // feature bytes (headers add a little).
  EXPECT_GE(ctx.channel().bytes_into_tee(),
            fp.total_transfer_bytes + fp.input_bytes);
  // The secure model is resident in TEE memory. The TA ships with
  // inference-mode BN folded into the convs, so its resident size is the
  // folded model's parameter bytes (slightly below the training model's).
  core::TwoBranchModel folded = tb.clone();
  folded.fold_batchnorm();
  EXPECT_GE(world.memory().live_bytes(), folded.secure_param_bytes());
  EXPECT_GT(world.memory().peak_bytes(), world.memory().live_bytes());
}

// ------------------------------------------------ REE run-ahead engine --

/// The deployment dataflow rebuilt from the public API and run serially:
/// stage i's REE block, then its TEE block, then gather + add. Both
/// branches freeze the way deployment does (clone, fold BN unless the
/// reference kernels are pinned, prepare) on a normal- and a secure-world
/// context.
class SerialOracle {
 public:
  explicit SerialOracle(const core::TwoBranchModel& tb) {
    for (int i = 0; i < tb.num_stages(); ++i) {
      const core::FusionStage& s = tb.stage(i);
      secure_.push_back(freeze(*s.secure, tee_));
      exposed_.push_back(s.fused ? freeze(*s.exposed, ree_) : nullptr);
      maps_.push_back(s.channel_map);
    }
  }

  Tensor forward(const Tensor& batch) {
    Tensor r = batch;
    Tensor t = batch;
    for (size_t i = 0; i < secure_.size(); ++i) {
      if (exposed_[i]) r = exposed_[i]->forward(ree_, r, false);
      Tensor out = secure_[i]->forward(tee_, t, false);
      if (exposed_[i]) add(tee_, out, core::gather_channels(r, maps_[i]), out);
      t = std::move(out);
    }
    return t;
  }

 private:
  static std::unique_ptr<nn::Layer> freeze(const nn::Layer& block,
                                           ExecutionContext& ctx) {
    std::unique_ptr<nn::Layer> copy = block.clone();
    if (auto* seq = dynamic_cast<nn::Sequential*>(copy.get())) {
      nn::fold_batchnorm_inference(*seq);
    }
    copy->prepare_inference(ctx);
    return copy;
  }

  // The contexts hold the blocks' packed panels, so they outlive them.
  ExecutionContext ree_{tee::World::kNormal};
  ExecutionContext tee_{tee::World::kSecure};
  std::vector<std::unique_ptr<nn::Layer>> secure_, exposed_;
  std::vector<std::vector<int64_t>> maps_;
};

TEST(DeployedTBNet, RunAheadMatchesSerialOracleBitwise) {
  for (const models::Family family :
       {models::Family::kVgg, models::Family::kResNet}) {
    models::ModelConfig cfg = tiny_vgg_cfg();
    cfg.family = family;
    cfg.depth = family == models::Family::kVgg ? 11 : 20;
    nn::Sequential victim = models::build_victim(cfg);
    core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
    prune_with_rollback(tb, cfg);

    tee::SecureWorld world;
    tee::TeeContext ctx(world);
    DeployedTBNet deployed(tb, ctx);
    SerialOracle oracle(tb);
    Rng rng(10);
    for (const int64_t n : {1, 16, 1}) {
      const Tensor batch = Tensor::randn(Shape{n, 3, 32, 32}, rng);
      EXPECT_TRUE(allclose(deployed.infer_batch(batch), oracle.forward(batch),
                           0.0f, 0.0f))
          << "depth " << cfg.depth << ", batch " << n;
    }
  }
}

TEST(DeployedTBNet, SlowInvokesCarryEveryReadyStageBitwise) {
  models::ModelConfig cfg = tiny_vgg_cfg();
  cfg.family = models::Family::kResNet;
  cfg.depth = 20;
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  prune_with_rollback(tb, cfg);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet::Options opt;
  opt.max_batch = 4;
  DeployedTBNet deployed(tb, ctx, "tbnet-grouping", opt);
  // Each invoke stalls 20 ms, far longer than any REE stage takes here.
  tee::DeviceProfile slow = tee::DeviceProfile::rpi3();
  slow.invoke_overhead_s = 20e-3;
  deployed.session().simulate_timing(slow);
  SerialOracle oracle(tb);
  Rng rng(15);
  for (const int64_t n : {int64_t{1}, deployed.max_batch()}) {
    const Tensor batch = Tensor::randn(Shape{n, 3, 32, 32}, rng);
    const int64_t before = deployed.world_switches();
    EXPECT_TRUE(allclose(deployed.infer_batch(batch), oracle.forward(batch),
                         0.0f, 0.0f))
        << "batch " << n;
    // Every invoke switches in; the last also switches back with the logits.
    const int64_t invokes = deployed.world_switches() - before - 1;
    if (n == 1) {
      // The REE ran the later stages during the first invoke's stall.
      EXPECT_LT(invokes, deployed.num_stages());
    } else {
      // The byte bound holds a full batch to one stage ahead.
      EXPECT_EQ(invokes, deployed.num_stages());
    }
  }
}

TEST(DeployedTBNet, ReeSideFailureRethrowsTheSerialTypeAndRecovers) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx);
  SerialOracle oracle(tb);
  Rng rng(11);
  // Four channels: M_R's first conv rejects the batch before any record
  // reaches the TA, which would accept any well-formed input tensor.
  const Tensor bad = Tensor::randn(Shape{2, 4, 32, 32}, rng);
  const Tensor good = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const std::type_info* serial_type = nullptr;
  try {
    oracle.forward(bad);
  } catch (const std::exception& e) {
    serial_type = &typeid(e);
  }
  ASSERT_NE(serial_type, nullptr);
  for (int round = 0; round < 3; ++round) {
    try {
      deployed.infer_batch(bad);
      ADD_FAILURE() << "the REE branch accepted a 4-channel batch";
    } catch (const std::exception& e) {
      EXPECT_TRUE(typeid(e) == *serial_type)
          << typeid(e).name() << " vs " << serial_type->name();
    }
    EXPECT_TRUE(allclose(deployed.infer_batch(good), oracle.forward(good),
                         0.0f, 0.0f));
  }
}

/// Threads in this process; -1 without /proc.
int64_t process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoll(line.substr(8));
  }
  return -1;
}

/// process_threads() once it reads `want` (a joined thread may linger in
/// the count for a moment after pthread_join), or its last reading after
/// 5 s.
int64_t threads_settling_at(int64_t want) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int64_t got = process_threads();
  while (got != want && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = process_threads();
  }
  return got;
}

TEST(DeployedTBNet, EachEngineOwnsOneJoinedReeThread) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  Rng rng(12);
  const Tensor batch = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const Tensor bad = Tensor::randn(Shape{2, 4, 32, 32}, rng);
  int64_t base = -1;
  {
    DeployedTBNet warm(tb, ctx, "tbnet-warm");
    warm.infer_batch(batch);  // the kernel pool is up from here on
    base = process_threads() - 1;  // everything but warm's REE thread
  }
  if (base < 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  EXPECT_EQ(threads_settling_at(base), base);
  for (int round = 0; round < 8; ++round) {
    std::vector<std::unique_ptr<DeployedTBNet>> engines;
    for (int e = 0; e < 3; ++e) {
      engines.push_back(std::make_unique<DeployedTBNet>(
          tb, ctx, "tbnet-life-" + std::to_string(e)));
    }
    EXPECT_EQ(threads_settling_at(base + 3), base + 3);
    engines[0]->infer_batch(batch);  // destroyed idle after a batch
    EXPECT_THROW(engines[1]->infer_batch(bad), std::invalid_argument);
    // engines[2] never runs a batch.
  }
  EXPECT_EQ(threads_settling_at(base), base);
}

// ------------------------------------------------- TA input hardening -----

std::vector<uint8_t> tensor_header(std::initializer_list<int64_t> dims) {
  std::vector<uint8_t> buf;
  tee::pack_i64(buf, static_cast<int64_t>(dims.size()));
  for (const int64_t d : dims) tee::pack_i64(buf, d);
  return buf;
}

/// A kCmdRun record stream, appended record by record.
struct Records {
  std::vector<uint8_t> bytes;

  Records& i64(int64_t v) {
    tee::pack_i64(bytes, v);
    return *this;
  }
  Records& raw(const std::vector<uint8_t>& b) {
    bytes.insert(bytes.end(), b.begin(), b.end());
    return *this;
  }
  Records& tensor(const Tensor& t) {
    i64(t.shape().ndim());
    for (const int64_t d : t.shape().dims()) i64(d);
    tee::pack_floats(bytes, t.data(), t.numel());
    return *this;
  }
  Records& input(const Tensor& t) { return i64(kRecordInput).tensor(t); }
  Records& stage(int64_t i, const Tensor& r) {
    return i64(kRecordStage).i64(i).tensor(r);
  }
};

TEST(TbnetTA, HostilePayloadsAreRejectedTyped) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-hostile");
  Rng rng(13);
  const Tensor batch = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const Tensor want = deployed.infer_batch(batch);

  // Well-formed records: an image and every fused stage's R_i output.
  const Tensor image = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  std::vector<Tensor> r_out;
  Tensor x = image;
  for (int i = 0; i < tb.num_stages() && tb.stage(i).fused; ++i) {
    x = tb.stage(i).exposed->forward(x, false);
    r_out.push_back(x);
  }
  ASSERT_EQ(static_cast<int>(r_out.size()), deployed.num_stages());
  const auto all_stages = [&] {
    Records r;
    r.input(image);
    for (size_t i = 0; i < r_out.size(); ++i) {
      r.stage(static_cast<int64_t>(i), r_out[i]);
    }
    return r;
  };

  // The REE is the attacker: a second session on the installed TA sends
  // whatever bytes it likes.
  tee::TeeSession s = ctx.open_session("tbnet-hostile");
  const auto run = [&s](const Records& r, std::vector<uint8_t>* out = nullptr) {
    return s.invoke(kCmdRun, r.bytes, out);
  };
  // The crafted records are valid: the full stream releases the logits.
  std::vector<uint8_t> logits;
  ASSERT_EQ(run(all_stages().i64(kRecordLogits), &logits), tee::kTeeSuccess);
  EXPECT_FALSE(logits.empty());

  // Input records whose tensors lie.
  const auto input_header = [](std::initializer_list<int64_t> dims) {
    return Records().i64(kRecordInput).raw(tensor_header(dims));
  };
  constexpr int64_t k2to32 = int64_t{1} << 32;
  // A negative dim.
  EXPECT_THROW(run(input_header({1, -3, 32, 32})), std::runtime_error);
  // Dims whose product wraps int64 to 0, which would pass as an empty map.
  EXPECT_THROW(run(input_header({k2to32, k2to32})), std::runtime_error);
  // An element count whose byte size wraps size_t to 0.
  EXPECT_THROW(run(input_header({int64_t{1} << 62})), std::runtime_error);
  // A truncated input: half the promised floats.
  const std::vector<float> half(3 * 32 * 32 / 2, 1.0f);
  Records truncated = input_header({1, 3, 32, 32});
  tee::pack_floats(truncated.bytes, half.data(),
                   static_cast<int64_t>(half.size()));
  EXPECT_THROW(run(truncated), std::runtime_error);

  // A stage record whose tensor lies, after a valid input record.
  EXPECT_THROW(run(Records().input(image).i64(kRecordStage).i64(0).raw(
                   tensor_header({1, -16, 32, 32}))),
               std::runtime_error);
  // A stream cut inside a record header: every prefix of stage 0's tag,
  // index, rank and four dims.
  Records whole;
  whole.stage(0, r_out[0]);
  const size_t header = (3 + 4) * sizeof(int64_t);
  for (size_t len = 1; len < header; ++len) {
    Records cut;
    cut.input(image).raw(std::vector<uint8_t>(
        whole.bytes.begin(), whole.bytes.begin() + static_cast<long>(len)));
    EXPECT_THROW(run(cut), std::runtime_error) << "cut after " << len << " B";
  }

  // Unknown tags.
  for (const int64_t tag : {int64_t{0}, int64_t{-1}, int64_t{99}}) {
    EXPECT_EQ(run(Records().i64(tag)), tee::kTeeErrorBadParameters) << tag;
    EXPECT_EQ(run(Records().input(image).i64(tag)),
              tee::kTeeErrorBadParameters)
        << tag;
  }
  // A repeated stage record, then an out-of-order one.
  EXPECT_EQ(run(Records().input(image).stage(0, r_out[0]).stage(0, r_out[0])),
            tee::kTeeErrorBadState);
  EXPECT_EQ(run(Records().input(image).stage(1, r_out[1])),
            tee::kTeeErrorBadState);
  // A stage record with no batch in progress: the last stream released.
  ASSERT_EQ(run(all_stages().i64(kRecordLogits), &logits), tee::kTeeSuccess);
  EXPECT_EQ(run(Records().stage(0, r_out[0])), tee::kTeeErrorBadState);
  // A release with no batch in progress. The engine's batch released one
  // label per image; its logits did not stay behind for another session.
  deployed.predict_batch(batch);
  for (const int64_t release : {kRecordLogits, kRecordLabels}) {
    std::vector<uint8_t> replayed;
    EXPECT_EQ(run(Records().i64(release), &replayed), tee::kTeeErrorBadState)
        << release;
    EXPECT_TRUE(replayed.empty()) << release;
  }
  // A release record before the last fused stage.
  for (const int64_t release : {kRecordLogits, kRecordLabels}) {
    EXPECT_EQ(run(Records().input(image).i64(release)),
              tee::kTeeErrorBadState);
    EXPECT_EQ(run(Records().input(image).stage(0, r_out[0]).i64(release)),
              tee::kTeeErrorBadState);
  }
  // Bytes after a release record, even a well-formed record.
  EXPECT_EQ(run(all_stages().i64(kRecordLogits).i64(0)),
            tee::kTeeErrorBadParameters);
  EXPECT_EQ(run(all_stages().i64(kRecordLabels).input(image)),
            tee::kTeeErrorBadParameters);
  // An input record after a stage record, or after another input record.
  EXPECT_EQ(run(Records().input(image).stage(0, r_out[0]).input(image)),
            tee::kTeeErrorBadState);
  EXPECT_EQ(run(Records().input(image).input(image)), tee::kTeeErrorBadState);
  // This TA serves kCmdRun and kCmdSetWidth only: the retired ids 1 to 6
  // are rejected.
  for (const uint32_t cmd : {1u, 2u, 3u, 4u, 5u, 6u}) {
    EXPECT_EQ(s.invoke(cmd, Records().input(image).bytes),
              tee::kTeeErrorBadParameters)
        << "command " << cmd;
  }

  // Every rejection left the TA intact: the engine still serves, bitwise.
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

TEST(TbnetTA, SetWidthRejectsWidthsOutsideInt) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  DeployedTBNet deployed(tb, ctx, "tbnet-width");
  Rng rng(16);
  const Tensor batch = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const Tensor want = deployed.infer_batch(batch);

  tee::TeeSession s = ctx.open_session("tbnet-width");
  const auto set_width = [&s](int64_t width) {
    std::vector<uint8_t> payload;
    tee::pack_i64(payload, width);
    return s.invoke(kCmdSetWidth, payload);
  };
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  for (const int64_t width : {int64_t{-1}, kIntMax + 1, int64_t{1} << 32,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(set_width(width), tee::kTeeErrorBadParameters) << width;
  }
  EXPECT_THROW(s.invoke(kCmdSetWidth, {1, 2, 3}), std::runtime_error);
  // The range's ends are accepted; widths never change results.
  EXPECT_EQ(set_width(kIntMax), tee::kTeeSuccess);
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
  EXPECT_EQ(set_width(0), tee::kTeeSuccess);
  EXPECT_TRUE(allclose(deployed.infer_batch(batch), want, 0.0f, 0.0f));
}

TEST(TbnetTA, TruncatedImageIsRejectedTyped) {
  // A one-stage image: a fused stage with a two-entry channel map and a
  // 1x1 conv block.
  Rng rng(14);
  nn::Sequential block;
  block.emplace<nn::Conv2d>(
      3, 2,
      nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0, .bias = false},
      rng);
  std::vector<uint8_t> blob;
  nn::save_model(blob, block);
  std::vector<uint8_t> image;
  for (const int64_t v : {int64_t{1}, int64_t{2}, int64_t{0}, int64_t{1},
                          int64_t{1}, static_cast<int64_t>(blob.size())}) {
    tee::pack_i64(image, v);  // stages, map_len, map[0..1], fused, blob_len
  }
  image.insert(image.end(), blob.begin(), blob.end());
  tee::SecureWorld world;
  EXPECT_NO_THROW(world.install("tbnet-image", make_tbnet_ta(image)));
  // A fresh TA has no batch in progress, so a stream may not open with a
  // stage record, whatever its index.
  tee::TeeContext ctx(world);
  tee::TeeSession s = ctx.open_session("tbnet-image");
  const Tensor r_out = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  for (const int64_t stage : {int64_t{-1}, int64_t{0}}) {
    EXPECT_EQ(s.invoke(kCmdRun, Records().stage(stage, r_out).bytes),
              tee::kTeeErrorBadState)
        << "stage " << stage;
  }

  for (size_t len = 0; len < image.size(); ++len) {
    const std::vector<uint8_t> cut(image.begin(),
                                   image.begin() + static_cast<long>(len));
    EXPECT_THROW(world.install("tbnet-cut", make_tbnet_ta(cut)),
                 std::runtime_error)
        << "prefix of " << len << " bytes";
  }
  // Lengths that lie about the bytes behind them.
  const auto with = [&image](size_t at, int64_t v) {
    std::vector<uint8_t> img = image;
    std::memcpy(img.data() + at, &v, sizeof(v));
    return img;
  };
  constexpr size_t kMapLenAt = 8, kBlobLenAt = 40;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_THROW(make_tbnet_ta(with(kMapLenAt, -1)), std::runtime_error);
  EXPECT_THROW(make_tbnet_ta(with(kMapLenAt, kMax / 8)), std::runtime_error);
  EXPECT_THROW(make_tbnet_ta(with(kBlobLenAt, -1)), std::runtime_error);
  EXPECT_THROW(make_tbnet_ta(with(kBlobLenAt, kMax)), std::runtime_error);
}

TEST(DeployedTBNet, ModelTooBigForSecureMemoryFailsLoudly) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  tee::SecureWorld world(/*budget=*/1024);  // 1 KiB: nothing fits
  tee::TeeContext ctx(world);
  EXPECT_THROW(DeployedTBNet(tb, ctx), tee::SecurityViolation);
}

TEST(PartitionDeployment, StageZeroIsTheFullTeeBaseline) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  PartitionDeployment deployed(victim, /*first_tee_stage=*/0, ctx,
                               "full-victim");
  Rng rng(8);
  Tensor img = Tensor::randn(Shape{3, 32, 32}, rng);
  Tensor want = victim.forward(img.reshaped(Shape{1, 3, 32, 32}), false);
  EXPECT_TRUE(allclose(deployed.infer(img), want, 0.0f, 0.0f));
  EXPECT_EQ(deployed.predict(img), want.argmax());
  // Nothing runs in the REE: the TEE's input is the image itself.
  EXPECT_TRUE(allclose(deployed.observable_tee_input(img),
                       img.reshaped(Shape{1, 3, 32, 32}), 0.0f, 0.0f));
  // The whole victim is resident in secure memory.
  EXPECT_GE(world.memory().live_bytes(), victim.param_bytes());

  // The image's stages are secure-only: a second session's stage record is
  // refused, and a release right after the input runs the whole victim.
  tee::TeeSession s = ctx.open_session("full-victim");
  const Tensor x = img.reshaped(Shape{1, 3, 32, 32});
  EXPECT_EQ(s.invoke(kCmdRun, Records().input(x).stage(0, x).bytes),
            tee::kTeeErrorBadState);
  std::vector<uint8_t> labels;
  ASSERT_EQ(s.invoke(kCmdRun, Records().input(x).i64(kRecordLabels).bytes,
                     &labels),
            tee::kTeeSuccess);
  size_t off = 0;
  EXPECT_EQ(tee::unpack_i64(labels, &off), 1);
  EXPECT_EQ(tee::unpack_i64(labels, &off), want.argmax());
  EXPECT_EQ(off, labels.size());
  EXPECT_EQ(ctx.channel().leaked_bytes(), 0);
}

TEST(PartitionDeployment, SplitsComputationCorrectly) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  PartitionDeployment deployed(victim, /*first_tee_stage=*/3, ctx);
  Rng rng(9);
  Tensor img = Tensor::randn(Shape{3, 32, 32}, rng);
  Tensor want = victim.forward(img.reshaped(Shape{1, 3, 32, 32}), false);
  EXPECT_TRUE(allclose(deployed.infer(img), want, 0.0f, 0.0f));

  // What the attacker observes entering the TEE equals the output of the
  // first 3 stages — plaintext feature maps (DarkneTZ's weakness).
  Tensor x = img.reshaped(Shape{1, 3, 32, 32});
  for (int i = 0; i < 3; ++i) x = victim.layer(i).forward(x, false);
  EXPECT_TRUE(allclose(deployed.observable_tee_input(img), x, 0.0f, 0.0f));
  // Only the logits left the TEE.
  EXPECT_EQ(ctx.channel().leaked_bytes(), 0);
}

TEST(PartitionDeployment, RejectsDegeneratePartitions) {
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  EXPECT_THROW(PartitionDeployment(victim, -1, ctx), std::invalid_argument);
  EXPECT_THROW(PartitionDeployment(victim, victim.size(), ctx),
               std::invalid_argument);
}

TEST(Latency, TbnetFootprintDrivesTimelineReduction) {
  // End-to-end: pruned two-branch footprint + RPi3 cost model must yield a
  // latency reduction vs. the all-in-TEE victim in the paper's 1.0-1.5x band.
  const auto cfg = tiny_vgg_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  for (const auto& point : models::prune_points(cfg)) {
    const core::ResolvedPoint rp = core::resolve_point(tb, point);
    std::vector<int64_t> keep;
    for (int64_t c = 0; c < rp.bn_secure->channels(); ++c) {
      if (c % 2 == 0) keep.push_back(c);  // 50% pruned
    }
    core::apply_channel_keep(tb, point, keep);
  }
  const tee::CostModel cm(tee::DeviceProfile::rpi3());
  const VictimFootprint vfp = measure_victim(victim, Shape{3, 32, 32});
  const TwoBranchFootprint tfp = measure_two_branch(tb, Shape{3, 32, 32});
  const double baseline =
      simulate_full_tee(cm, vfp.stage_macs, vfp.input_bytes).makespan_s;
  const double split = simulate_two_branch(cm, tfp.stages).makespan_s;
  EXPECT_LT(split, baseline);
  EXPECT_GT(baseline / split, 1.02);
  EXPECT_LT(baseline / split, 6.0);
}

}  // namespace
}  // namespace tbnet::runtime
