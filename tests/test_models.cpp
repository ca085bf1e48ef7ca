// Tests for the model zoo: victim builders, two-branch initialization rules,
// prune-point generation and the single-branch trainer.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "core/pruner.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/residual.h"
#include "tensor/bytes.h"
#include "tensor/threadpool.h"

namespace tbnet::models {
namespace {

ModelConfig small_vgg() {
  ModelConfig cfg;
  cfg.family = Family::kVgg;
  cfg.depth = 11;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 3;
  return cfg;
}

ModelConfig small_resnet() {
  ModelConfig cfg;
  cfg.family = Family::kResNet;
  cfg.depth = 20;
  cfg.classes = 10;
  cfg.width_mult = 0.25;
  cfg.seed = 4;
  return cfg;
}

TEST(ModelZoo, VggStageCounts) {
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kVgg, .depth = 11}), 9);
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kVgg, .depth = 13}), 11);
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kVgg, .depth = 16}), 14);
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kVgg, .depth = 18}), 17);
}

TEST(ModelZoo, ResNetStageCounts) {
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kResNet, .depth = 20}),
            11);
  EXPECT_EQ(num_stages(ModelConfig{.family = Family::kResNet, .depth = 32}),
            17);
}

TEST(ModelZoo, RejectsUnsupportedDepths) {
  EXPECT_THROW(build_victim(ModelConfig{.family = Family::kVgg, .depth = 15}),
               std::invalid_argument);
  EXPECT_THROW(
      build_victim(ModelConfig{.family = Family::kResNet, .depth = 21}),
      std::invalid_argument);
}

TEST(ModelZoo, VictimForwardShapes) {
  Rng rng(1);
  nn::Sequential vgg = build_victim(small_vgg());
  EXPECT_EQ(vgg.forward(Tensor::randn(Shape{2, 3, 32, 32}, rng), false).shape(),
            Shape({2, 10}));
  nn::Sequential resnet = build_victim(small_resnet());
  EXPECT_EQ(
      resnet.forward(Tensor::randn(Shape{2, 3, 32, 32}, rng), false).shape(),
      Shape({2, 10}));
}

TEST(ModelZoo, Vgg18HasHiddenDense) {
  ModelConfig cfg = small_vgg();
  cfg.depth = 18;
  nn::Sequential victim = build_victim(cfg);
  auto* head = dynamic_cast<nn::Sequential*>(&victim.layer(victim.size() - 1));
  ASSERT_NE(head, nullptr);
  EXPECT_NE(head->find_nth<nn::Dense>(1), nullptr);  // two dense layers
}

TEST(ModelZoo, WidthMultiplierScalesChannels) {
  ModelConfig cfg = small_vgg();
  cfg.width_mult = 1.0;
  nn::Sequential full = build_victim(cfg);
  auto* stage0 = dynamic_cast<nn::Sequential*>(&full.layer(0));
  ASSERT_NE(stage0, nullptr);
  EXPECT_EQ(stage0->find_nth<nn::Conv2d>(0)->out_channels(), 64);
  cfg.width_mult = 0.25;
  nn::Sequential quarter = build_victim(cfg);
  auto* q0 = dynamic_cast<nn::Sequential*>(&quarter.layer(0));
  EXPECT_EQ(q0->find_nth<nn::Conv2d>(0)->out_channels(), 16);
}

TEST(ModelZoo, TwoBranchVggExposedInheritsVictimWeights) {
  const ModelConfig cfg = small_vgg();
  nn::Sequential victim = build_victim(cfg);
  core::TwoBranchModel tb = build_two_branch(victim, cfg);
  ASSERT_EQ(tb.num_stages(), victim.size());

  Rng rng(2);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  // M_R alone IS the victim at initialization (paper step 1).
  EXPECT_TRUE(allclose(tb.forward_exposed_only(x),
                       victim.forward(x, false), 1e-5f, 1e-5f));
  // M_T has the same architecture but fresh weights: same output shape,
  // different values.
  Tensor t_out = tb.forward_secure_only(x, false);
  EXPECT_EQ(t_out.shape(), Shape({1, 10}));
  EXPECT_FALSE(allclose(t_out, victim.forward(x, false)));
}

TEST(ModelZoo, TwoBranchResNetExposedDropsSkips) {
  const ModelConfig cfg = small_resnet();
  nn::Sequential victim = build_victim(cfg);
  core::TwoBranchModel tb = build_two_branch(victim, cfg);

  int exposed_residuals = 0, secure_residuals = 0;
  for (int i = 0; i < tb.num_stages(); ++i) {
    if (dynamic_cast<nn::ResidualBlock*>(tb.stage(i).exposed.get())) {
      ++exposed_residuals;
    }
    if (dynamic_cast<nn::ResidualBlock*>(tb.stage(i).secure.get())) {
      ++secure_residuals;
    }
  }
  EXPECT_EQ(exposed_residuals, 0);  // main branch only, skips excluded
  EXPECT_EQ(secure_residuals, 9);   // original architecture

  // The plain exposed branch still runs and inherits the victim's main-path
  // conv weights.
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  EXPECT_EQ(tb.forward_exposed_only(x).shape(), Shape({1, 10}));
  auto* victim_block = dynamic_cast<nn::ResidualBlock*>(&victim.layer(1));
  auto* exposed_block = dynamic_cast<nn::Sequential*>(tb.stage(1).exposed.get());
  ASSERT_NE(victim_block, nullptr);
  ASSERT_NE(exposed_block, nullptr);
  EXPECT_TRUE(allclose(exposed_block->find_nth<nn::Conv2d>(0)->weight(),
                       victim_block->conv1().weight(), 0.0f, 0.0f));
}

TEST(ModelZoo, TwoBranchRejectsMismatchedVictim) {
  nn::Sequential victim = build_victim(small_vgg());
  EXPECT_THROW(build_two_branch(victim, small_resnet()),
               std::invalid_argument);
}

TEST(ModelZoo, PrunePointsMatchFamilies) {
  const auto vgg_points = prune_points(small_vgg());
  EXPECT_EQ(vgg_points.size(), 8u);  // every conv stage
  for (const auto& p : vgg_points) {
    EXPECT_EQ(p.kind, core::PrunePoint::Kind::kInterface);
  }
  const auto res_points = prune_points(small_resnet());
  EXPECT_EQ(res_points.size(), 9u);  // every basic block
  for (const auto& p : res_points) {
    EXPECT_EQ(p.kind, core::PrunePoint::Kind::kInternal);
  }
}

TEST(ModelZoo, PrunePointsResolveOnFreshTwoBranch) {
  for (const ModelConfig& cfg : {small_vgg(), small_resnet()}) {
    nn::Sequential victim = build_victim(cfg);
    core::TwoBranchModel tb = build_two_branch(victim, cfg);
    for (const auto& point : prune_points(cfg)) {
      const core::ResolvedPoint rp = core::resolve_point(tb, point);
      EXPECT_GT(rp.bn_secure->channels(), 0);
    }
  }
}

TEST(ModelZoo, NamesAreDescriptive) {
  EXPECT_EQ(ModelConfig{}.name().substr(0, 3), "VGG");
  ModelConfig r = small_resnet();
  EXPECT_NE(r.name().find("ResNet20"), std::string::npos);
  EXPECT_NE(r.name().find("w="), std::string::npos);
}

TEST(Trainer, LearnsTinyTaskAboveChance) {
  ModelConfig cfg = small_resnet();
  cfg.classes = 4;
  nn::Sequential model = build_victim(cfg);
  auto [train, test] =
      data::SyntheticCifar::make_split(4, 160, 80, 11, 32, 0.25);
  TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 32;
  tc.lr = 0.1;
  tc.augment = false;
  const TrainResult r = train_classifier(model, train, test, tc);
  EXPECT_EQ(r.epoch_test_acc.size(), 5u);
  EXPECT_GT(r.final_acc, 0.4);  // chance = 0.25
  EXPECT_DOUBLE_EQ(r.final_acc, evaluate(model, test));
}

// ------------------------------------------------ training bits --------

/// What one training step leaves behind, as raw bits: every gradient, the
/// input gradient where there is one, and a state blob that carries the BN
/// running statistics.
struct StepBits {
  std::vector<std::vector<uint32_t>> grads;
  std::vector<uint32_t> dx;
  std::vector<uint8_t> state;
};

std::vector<uint32_t> tensor_bits(const Tensor& t) {
  std::vector<uint32_t> out(static_cast<size_t>(t.numel()));
  for (int64_t i = 0; i < t.numel(); ++i) {
    out[static_cast<size_t>(i)] = std::bit_cast<uint32_t>(t[i]);
  }
  return out;
}

/// Runs `step` with ThreadPool::global() swapped for a `threads`-thread pool.
template <typename Step>
StepBits with_pool(int threads, Step step) {
  ThreadPool pool(threads);
  ThreadPool::set_global_for_testing(&pool);
  StepBits bits = step();
  ThreadPool::set_global_for_testing(nullptr);
  return bits;
}

void expect_same_step(const StepBits& got, const StepBits& want, int threads) {
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (size_t i = 0; i < got.grads.size(); ++i) {
    EXPECT_EQ(got.grads[i], want.grads[i])
        << "threads=" << threads << " grad " << i;
  }
  EXPECT_EQ(got.dx, want.dx) << "threads=" << threads << " input grad";
  EXPECT_EQ(got.state, want.state) << "threads=" << threads << " state";
}

TEST(TrainingBits, TwoBranchStepIndependentOfPoolSize) {
  ModelConfig cfg = small_resnet();
  cfg.width_mult = 0.125;
  const nn::Sequential victim = build_victim(cfg);
  const core::TwoBranchModel base = build_two_branch(victim, cfg);
  Rng rng(11);
  const Tensor x = Tensor::randn(Shape{4, 3, 32, 32}, rng);
  const Tensor g = Tensor::randn(Shape{4, cfg.classes}, rng);
  auto step = [&] {
    core::TwoBranchModel m = base.clone();
    m.zero_grad();
    ExecutionContext ctx;
    m.forward(ctx, x, /*train=*/true);
    m.backward(ctx, g);
    StepBits bits;
    for (const nn::ParamRef& p : m.params()) {
      bits.grads.push_back(tensor_bits(*p.grad));
    }
    core::save_two_branch(bits.state, m);  // weights and BN running stats
    return bits;
  };
  const StepBits want = with_pool(1, step);
  for (const int threads : {2, 4}) {
    expect_same_step(with_pool(threads, step), want, threads);
  }
}

TEST(TrainingBits, WideResidualStepIndependentOfPoolSize) {
  // 16 -> 24 runs both 3x3 convs on the direct path where the tier has one.
  // 72 -> 80 keeps every conv on the GEMM (its depth passes one k-slice),
  // where 80 output channels put each dW on the tiled path (n >= kNR).
  for (const auto& [in_c, out_c] :
       {std::pair<int64_t, int64_t>{16, 24}, {72, 80}}) {
    Rng rng(12);
    const nn::ResidualBlock base(in_c, out_c, 1, rng);
    const Tensor x = Tensor::randn(Shape{3, in_c, 12, 12}, rng);
    const Tensor g = Tensor::randn(Shape{3, out_c, 12, 12}, rng);
    auto step = [&] {
      std::unique_ptr<nn::Layer> block = base.clone();
      ExecutionContext ctx;
      block->forward(ctx, x, /*train=*/true);
      StepBits bits;
      bits.dx = tensor_bits(block->backward(ctx, g));
      for (const nn::ParamRef& p : block->params()) {
        bits.grads.push_back(tensor_bits(*p.grad));
      }
      auto& rb = static_cast<nn::ResidualBlock&>(*block);
      for (nn::BatchNorm2d* bn : {&rb.bn1(), &rb.bn2(), &rb.down_bn()}) {
        for (const Tensor* t : {&bn->running_mean(), &bn->running_var()}) {
          const std::vector<uint32_t> b = tensor_bits(*t);
          put_bytes(bits.state, b.data(), b.size() * sizeof(uint32_t));
        }
      }
      return bits;
    };
    const StepBits want = with_pool(1, step);
    for (const int threads : {2, 4}) {
      SCOPED_TRACE(std::to_string(in_c) + "->" + std::to_string(out_c));
      expect_same_step(with_pool(threads, step), want, threads);
    }
  }
}

}  // namespace
}  // namespace tbnet::models
