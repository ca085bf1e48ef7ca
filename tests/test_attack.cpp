// Tests for the attacker toolkit: extraction, direct use, fine-tuning and
// the substitute-layer attack against partition baselines.

#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/knowledge_transfer.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "tee/optee_api.h"

namespace tbnet::attack {
namespace {

models::ModelConfig tiny_cfg(int64_t classes = 4) {
  models::ModelConfig cfg;
  cfg.family = models::Family::kVgg;
  cfg.depth = 11;
  cfg.classes = classes;
  cfg.width_mult = 0.125;
  cfg.seed = 13;
  return cfg;
}

data::SyntheticCifar tiny_set(int64_t n, uint32_t split, int64_t classes = 4) {
  data::SyntheticCifar::Options opt;
  opt.classes = classes;
  opt.samples = n;
  opt.image_size = 32;
  opt.seed = 31;
  opt.split = split;
  opt.difficulty = 0.25;
  return data::SyntheticCifar(opt);
}

TEST(Extraction, MatchesExposedOnlyForward) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  nn::Sequential stolen = extract_exposed_model(tb);
  Rng rng(1);
  Tensor x = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  EXPECT_TRUE(allclose(stolen.forward(x, false),
                       tb.forward_exposed_only(x), 0.0f, 0.0f));
}

TEST(Extraction, IsACopyNotAView) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  nn::Sequential stolen = extract_exposed_model(tb);
  (*tb.params_exposed()[0].value)[0] += 10.0f;
  Rng rng(2);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  EXPECT_FALSE(allclose(stolen.forward(x, false),
                        tb.forward_exposed_only(x)));
}

TEST(DirectUse, EqualsEvaluateOfExtractedModel) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const auto test = tiny_set(60, 1);
  nn::Sequential stolen = extract_exposed_model(tb);
  EXPECT_DOUBLE_EQ(direct_use_accuracy(tb, test),
                   models::evaluate(stolen, test));
}

TEST(FineTune, ImprovesOverDirectUseWithFullData) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  // Give the victim (hence M_R) some skill first, then damage is visible.
  const auto train = tiny_set(160, 0);
  const auto test = tiny_set(80, 1);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  FineTuneConfig ft;
  ft.train.epochs = 3;
  ft.train.batch_size = 32;
  ft.train.lr = 0.05;
  ft.train.augment = false;
  const double direct = direct_use_accuracy(tb, test);
  const FineTuneResult r = fine_tune_attack(tb, train, test, 1.0, ft);
  EXPECT_EQ(r.fraction, 1.0);
  EXPECT_GT(r.accuracy, direct);
  EXPECT_GT(r.accuracy, 0.3);  // chance = 0.25
}

TEST(FineTune, SweepReturnsOnePointPerFraction) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  const auto train = tiny_set(80, 0);
  const auto test = tiny_set(40, 1);
  FineTuneConfig ft;
  ft.train.epochs = 1;
  ft.train.batch_size = 32;
  ft.train.augment = false;
  const auto sweep = fine_tune_sweep(tb, train, test, {0.1, 0.5, 1.0}, ft);
  ASSERT_EQ(sweep.size(), 3u);
  EXPECT_DOUBLE_EQ(sweep[0].fraction, 0.1);
  EXPECT_DOUBLE_EQ(sweep[2].fraction, 1.0);
  for (const auto& p : sweep) {
    EXPECT_GE(p.accuracy, 0.0);
    EXPECT_LE(p.accuracy, 1.0);
  }
}

TEST(FineTune, MoreDataHelpsTheAttacker) {
  // The qualitative shape of paper Fig. 2: attacker accuracy grows with
  // data availability (compare the extremes to dodge training noise).
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  const auto train = tiny_set(200, 0);
  const auto test = tiny_set(80, 1);
  models::TrainConfig vt;
  vt.epochs = 3;
  vt.batch_size = 32;
  vt.augment = false;
  models::train_classifier(victim, train, test, vt);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);

  FineTuneConfig ft;
  ft.train.epochs = 2;
  ft.train.batch_size = 32;
  ft.train.lr = 0.02;
  ft.train.augment = false;
  const auto sweep = fine_tune_sweep(tb, train, test, {0.02, 1.0}, ft);
  EXPECT_GE(sweep[1].accuracy + 0.05, sweep[0].accuracy);
}

TEST(Substitute, BreaksPartitionDeployment) {
  // The §2.3 story: with plaintext (input, output) pairs of the TEE layers,
  // the attacker distills substitute layers approaching victim accuracy —
  // this is exactly why TBNet enforces one-way transfers.
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  const auto train = tiny_set(200, 0);
  const auto test = tiny_set(80, 1);
  models::TrainConfig vt;
  vt.epochs = 4;
  vt.batch_size = 32;
  vt.augment = false;
  models::train_classifier(victim, train, test, vt);
  const double victim_acc = models::evaluate(victim, test);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::PartitionDeployment deployment(victim, victim.size() - 3, ctx);

  SubstituteConfig sc;
  sc.query_budget = 160;
  sc.train.epochs = 12;
  sc.train.batch_size = 32;
  sc.train.lr = 0.02;
  sc.train.augment = false;
  const SubstituteResult r =
      substitute_layer_attack(deployment, victim, train, test, sc);
  EXPECT_EQ(r.queries_used, 160);
  // The stolen model recovers most of the victim's skill.
  EXPECT_GT(r.accuracy, 0.5 * victim_acc);
  EXPECT_GT(r.accuracy, 0.3);  // well above chance
}

TEST(Substitute, ZeroQueriesYieldsNothing) {
  const auto cfg = tiny_cfg();
  nn::Sequential victim = models::build_victim(cfg);
  const auto test = tiny_set(40, 1);
  data::SyntheticCifar::Options empty_opt;
  empty_opt.classes = 4;
  empty_opt.samples = 0;
  empty_opt.image_size = 32;
  const data::SyntheticCifar empty(empty_opt);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::PartitionDeployment deployment(victim, 3, ctx);
  SubstituteConfig sc;
  sc.train.epochs = 1;
  const SubstituteResult r =
      substitute_layer_attack(deployment, victim, empty, test, sc);
  EXPECT_EQ(r.queries_used, 0);
  EXPECT_EQ(r.accuracy, 0.0);
}

}  // namespace
}  // namespace tbnet::attack
