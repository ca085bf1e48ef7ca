// End-to-end integration tests: the full six-step pipeline on miniature
// models, two-branch serialization, standalone-M_T retraining (Tab. 2
// machinery), deployment equivalence after the whole workflow, and
// determinism of the pipeline given fixed seeds.

#include <gtest/gtest.h>


#include "attack/attacks.h"
#include "core/pipeline.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "runtime/deployed.h"
#include "runtime/measurements.h"
#include "tee/optee_api.h"

namespace tbnet {
namespace {

models::ModelConfig tiny_cfg(models::Family family) {
  models::ModelConfig cfg;
  cfg.family = family;
  cfg.depth = (family == models::Family::kVgg) ? 11 : 20;
  cfg.classes = 4;
  cfg.width_mult = 0.125;
  cfg.seed = 77;
  return cfg;
}

data::SyntheticCifar tiny_set(int64_t n, uint32_t split) {
  data::SyntheticCifar::Options opt;
  opt.classes = 4;
  opt.samples = n;
  opt.image_size = 32;
  opt.seed = 99;
  opt.split = split;
  opt.difficulty = 0.25;
  return data::SyntheticCifar(opt);
}

core::PipelineConfig fast_pipeline() {
  core::PipelineConfig pc;
  pc.transfer.epochs = 3;
  pc.transfer.batch_size = 32;
  pc.transfer.augment = false;
  pc.prune.ratio = 0.15;
  pc.prune.acc_drop_budget = 0.25;
  pc.prune.max_iterations = 2;
  pc.prune.finetune.epochs = 1;
  pc.prune.finetune.batch_size = 32;
  pc.prune.finetune.augment = false;
  pc.recovery.epochs = 1;
  pc.recovery.batch_size = 32;
  pc.recovery.augment = false;
  return pc;
}

TEST(Integration, TwoBranchSerializationRoundTrip) {
  const auto cfg = tiny_cfg(models::Family::kVgg);
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  // Give one stage a non-trivial channel map by pruning + rollback by hand.
  core::TwoBranchModel snapshot = model.clone();
  const auto points = models::prune_points(cfg);
  std::vector<std::vector<int64_t>> keep;
  for (const auto& p : points) {
    const auto rp = core::resolve_point(model, p);
    std::vector<int64_t> k;
    for (int64_t c = 0; c + 1 < rp.bn_secure->channels(); ++c) k.push_back(c);
    core::apply_channel_keep(model, p, k);
    keep.push_back(k);
  }
  core::rollback_finalize(model, std::move(snapshot), points, keep);

  std::vector<uint8_t> bytes;
  core::save_two_branch(bytes, model);
  ByteReader r(bytes);
  core::TwoBranchModel loaded = core::load_two_branch(r);

  Rng rng(1);
  Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  EXPECT_TRUE(allclose(model.forward(x, false), loaded.forward(x, false),
                       0.0f, 0.0f));
  EXPECT_TRUE(allclose(model.forward_exposed_only(x),
                       loaded.forward_exposed_only(x), 0.0f, 0.0f));
  EXPECT_EQ(model.stage(0).channel_map, loaded.stage(0).channel_map);
}

TEST(Integration, LoadTwoBranchRejectsGarbage) {
  const std::string garbage = "garbage bytes here";
  const std::vector<uint8_t> bytes(garbage.begin(), garbage.end());
  ByteReader r(bytes);
  EXPECT_THROW(core::load_two_branch(r), std::runtime_error);
}

TEST(Integration, RetrainSecureStandaloneImprovesSecureOnlyAccuracy) {
  const auto cfg = tiny_cfg(models::Family::kVgg);
  const auto train = tiny_set(120, 0);
  const auto test = tiny_set(60, 1);
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel model = models::build_two_branch(victim, cfg);

  const double before = core::evaluate_secure_only(model, test);
  // Snapshot exposed weights: standalone retraining must not touch them.
  std::vector<Tensor> exposed_before;
  for (auto& p : model.params_exposed()) exposed_before.push_back(*p.value);

  core::TransferConfig rc;
  rc.epochs = 4;
  rc.batch_size = 32;
  rc.lr = 0.05;
  rc.augment = false;
  const auto r = core::retrain_secure_standalone(model, train, test, rc);
  EXPECT_GT(r.final_acc, before);
  EXPECT_GT(r.final_acc, 0.3);  // chance = 0.25

  auto exposed_after = model.params_exposed();
  for (size_t i = 0; i < exposed_before.size(); ++i) {
    EXPECT_TRUE(allclose(*exposed_after[i].value, exposed_before[i], 0.0f,
                         0.0f));
  }
}

class PipelineFamilies
    : public ::testing::TestWithParam<models::Family> {};

TEST_P(PipelineFamilies, FullWorkflowThenDeploymentIsConsistent) {
  const auto cfg = tiny_cfg(GetParam());
  const auto train = tiny_set(120, 0);
  const auto test = tiny_set(60, 1);

  nn::Sequential victim = models::build_victim(cfg);
  models::TrainConfig vt;
  vt.epochs = 3;
  vt.batch_size = 32;
  vt.lr = 0.1;
  vt.augment = false;
  models::train_classifier(victim, train, test, vt);

  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  const auto points = models::prune_points(cfg);
  const auto report =
      core::TbnetPipeline(fast_pipeline()).run(model, points, train, test);

  // Deploy and verify the TA path agrees with the in-process model.
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::DeployedTBNet deployed(model, ctx);
  for (int i = 0; i < 3; ++i) {
    const data::Sample s = test.get(i);
    const Tensor want =
        model.forward(s.image.reshaped(Shape{1, 3, 32, 32}), false);
    // Folded/fused engine: tight relative tolerance, not bitwise.
    EXPECT_TRUE(allclose(deployed.infer(s.image), want, 1e-4f, 1e-5f));
  }
  EXPECT_EQ(ctx.channel().leaked_bytes(), 0);

  // The attacker's extracted model agrees with the exposed-only path.
  nn::Sequential stolen = attack::extract_exposed_model(model);
  EXPECT_DOUBLE_EQ(models::evaluate(stolen, test),
                   core::evaluate_exposed_only(model, test));
  // Resource report sanity.
  EXPECT_GT(report.secure_bytes_initial, 0);
  EXPECT_LE(report.secure_bytes_final, report.secure_bytes_initial);
}

INSTANTIATE_TEST_SUITE_P(Families, PipelineFamilies,
                         ::testing::Values(models::Family::kVgg,
                                           models::Family::kResNet));

TEST(Integration, PipelineIsDeterministicGivenSeeds) {
  const auto cfg = tiny_cfg(models::Family::kVgg);
  const auto train = tiny_set(80, 0);
  const auto test = tiny_set(40, 1);

  auto run_once = [&]() {
    nn::Sequential victim = models::build_victim(cfg);
    models::TrainConfig vt;
    vt.epochs = 2;
    vt.batch_size = 32;
    vt.augment = false;
    models::train_classifier(victim, train, test, vt);
    core::TwoBranchModel model = models::build_two_branch(victim, cfg);
    const auto report = core::TbnetPipeline(fast_pipeline())
                            .run(model, models::prune_points(cfg), train, test);
    return std::make_pair(report.final_acc, report.attack_direct_acc);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Integration, FootprintMatchesTaAllocationOrder) {
  // The analytic secure_total_bytes must be within the TA's true peak
  // (model + transient activation buffers) by construction of the
  // accounting; assert the relationship holds on a real inference.
  const auto cfg = tiny_cfg(models::Family::kVgg);
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  const auto fp = runtime::measure_two_branch(model, Shape{3, 32, 32});

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::DeployedTBNet deployed(model, ctx);
  Rng rng(4);
  deployed.infer(Tensor::randn(Shape{3, 32, 32}, rng));
  // Model weights dominate and are always resident.
  EXPECT_GE(world.memory().peak_bytes(), fp.secure_model_bytes);
  // The analytic activation estimate is the same order as the true peak.
  EXPECT_LE(world.memory().peak_bytes(),
            fp.secure_model_bytes + 4 * fp.secure_activation_peak +
                fp.input_bytes);
}

}  // namespace
}  // namespace tbnet
