// Tests for the extension surface: the JSON report writer, the deployment
// profiler, and the architecture-inference attack.

#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/pruner.h"
#include "core/report.h"
#include "core/rollback.h"
#include "models/model_zoo.h"
#include "nn/sequential.h"
#include "runtime/profiler.h"

namespace tbnet {
namespace {

// ------------------------------------------------------------ JSON report --

TEST(JsonReport, EmitsWellFormedDocument) {
  core::PipelineReport r;
  r.transfer_acc = 0.9;
  r.final_acc = 0.87;
  r.attack_direct_acc = 0.4;
  r.rollback_applied = true;
  r.secure_bytes_final = 12345;
  core::PruneIteration it;
  it.index = 0;
  it.accepted = true;
  it.acc_after_finetune = 0.88;
  r.prune_iterations.push_back(it);

  const std::string json = core::to_json(r, "VGG \"18\"");
  EXPECT_NE(json.find("\"label\":\"VGG \\\"18\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"rollback_applied\":true"), std::string::npos);
  EXPECT_NE(json.find("\"secure_bytes_final\":12345"), std::string::npos);
  EXPECT_NE(json.find("\"prune_iterations\":[{"), std::string::npos);
  // Balanced braces / brackets.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(JsonReport, WriterRejectsUnbalancedScopes) {
  core::JsonWriter w;
  EXPECT_THROW(w.end_object(), std::logic_error);
}

// -------------------------------------------------------------- profiler ---

TEST(Profiler, ConsistentWithFootprints) {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 8;
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  const tee::CostModel device(tee::DeviceProfile::rpi3());
  const auto profile =
      runtime::profile_deployment(model, victim, device, Shape{3, 32, 32});

  ASSERT_EQ(profile.stages.size(), static_cast<size_t>(model.num_stages()));
  EXPECT_FALSE(profile.stages.back().fused);
  EXPECT_EQ(profile.stages.back().transfer_bytes, 0);
  EXPECT_GT(profile.latency_reduction(), 0.0);
  EXPECT_GT(profile.memory_reduction(), 0.0);
  const std::string table = runtime::format_profile(profile);
  EXPECT_NE(table.find("latency: baseline"), std::string::npos);
  EXPECT_NE(table.find("secure memory:"), std::string::npos);
}

// ------------------------------------------------- architecture inference --

TEST(ArchInference, FullLeakBeforeRollbackNoneAfter) {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 12;
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  const auto points = models::prune_points(cfg);

  // Before any pruning the branches are identical: total leak.
  auto leak = attack::infer_tee_architecture(model, points);
  EXPECT_DOUBLE_EQ(leak.leak_fraction, 1.0);

  // Prune every interface once (shared mask) — still identical widths.
  core::TwoBranchModel snapshot = model.clone();
  std::vector<std::vector<int64_t>> keep;
  for (const auto& p : points) {
    const auto rp = core::resolve_point(model, p);
    std::vector<int64_t> k;
    for (int64_t c = 0; c + 2 < rp.bn_secure->channels(); ++c) k.push_back(c);
    core::apply_channel_keep(model, p, k);
    keep.push_back(k);
  }
  leak = attack::infer_tee_architecture(model, points);
  EXPECT_DOUBLE_EQ(leak.leak_fraction, 1.0);

  // Rollback: every interface diverges; the attacker's guess fails
  // everywhere.
  core::rollback_finalize(model, std::move(snapshot), points, keep);
  leak = attack::infer_tee_architecture(model, points);
  EXPECT_DOUBLE_EQ(leak.leak_fraction, 0.0);
}

}  // namespace
}  // namespace tbnet
