// Tests for the TBNet core: two-branch model semantics, channel gather /
// scatter, Alg. 1 pruning, rollback finalization, knowledge transfer and the
// end-to-end pipeline on miniature models.

#include <gtest/gtest.h>

#include <cmath>

#include "core/knowledge_transfer.h"
#include "core/pipeline.h"
#include "core/pruner.h"
#include "core/rollback.h"
#include "core/two_branch.h"
#include "data/synthetic_cifar.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/ops.h"

namespace tbnet::core {
namespace {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dense;
using nn::Flatten;
using nn::GlobalAvgPool2d;
using nn::ReLU;
using nn::ResidualBlock;
using nn::Sequential;

std::unique_ptr<Sequential> conv_stage(int64_t in_c, int64_t out_c, Rng& rng) {
  auto s = std::make_unique<Sequential>();
  s->emplace<Conv2d>(in_c, out_c,
                     Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                     .bias = false},
                     rng);
  s->emplace<BatchNorm2d>(out_c);
  s->emplace<ReLU>();
  return s;
}

std::unique_ptr<Sequential> head_stage(int64_t in_c, int64_t classes,
                                       Rng& rng) {
  auto s = std::make_unique<Sequential>();
  s->emplace<GlobalAvgPool2d>();
  s->emplace<Flatten>();
  s->emplace<Dense>(in_c, classes, rng);
  return s;
}

/// 2 conv stages + head, both branches, VGG-style. Prunable interfaces at
/// stages 0 and 1.
TwoBranchModel tiny_vgg_two_branch(int64_t width, int64_t classes,
                                   uint64_t seed) {
  Rng rng_r(seed), rng_t(seed ^ 0xBEEF);
  TwoBranchModel model;
  model.add_stage(conv_stage(3, width, rng_r), conv_stage(3, width, rng_t));
  model.add_stage(conv_stage(width, width, rng_r),
                  conv_stage(width, width, rng_t));
  model.add_stage(head_stage(width, classes, rng_r),
                  head_stage(width, classes, rng_t));
  return model;
}

std::vector<PrunePoint> tiny_vgg_points() {
  return {{PrunePoint::Kind::kInterface, 0}, {PrunePoint::Kind::kInterface, 1}};
}

data::SyntheticCifar tiny_dataset(int64_t samples, uint32_t split,
                                  int64_t classes = 4) {
  data::SyntheticCifar::Options opt;
  opt.classes = classes;
  opt.samples = samples;
  opt.image_size = 12;
  opt.seed = 21;
  opt.split = split;
  opt.difficulty = 0.25;
  return data::SyntheticCifar(opt);
}

// ------------------------------------------------------- gather/scatter ----

TEST(GatherChannels, SelectsAndOrders) {
  Tensor x = Tensor::from({1, 2, 3, 4, 5, 6, 7, 8}).reshaped(Shape{1, 4, 1, 2});
  Tensor y = gather_channels(x, {2, 0});
  EXPECT_EQ(y.shape(), Shape({1, 2, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 6.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  EXPECT_FLOAT_EQ(y[3], 2.0f);
}

TEST(GatherChannels, EmptyMapIsIdentity) {
  Rng rng(1);
  Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  EXPECT_TRUE(allclose(gather_channels(x, {}), x, 0.0f, 0.0f));
}

TEST(GatherChannels, WorksOnLogits) {
  Tensor x = Tensor::from({1, 2, 3, 4}).reshaped(Shape{2, 2});
  Tensor y = gather_channels(x, {1});
  EXPECT_EQ(y.shape(), Shape({2, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
}

TEST(GatherChannels, OutOfRangeThrows) {
  Tensor x(Shape{1, 2, 1, 1});
  EXPECT_THROW(gather_channels(x, {2}), std::out_of_range);
}

TEST(ScatterChannels, IsAdjointOfGather) {
  Rng rng(2);
  const std::vector<int64_t> map = {3, 1, 4};
  Tensor x = Tensor::randn(Shape{2, 6, 3, 3}, rng);
  Tensor y = Tensor::randn(Shape{2, 3, 3, 3}, rng);
  Tensor gx = gather_channels(x, map);
  Tensor sy = scatter_channels(y, map, x.shape());
  double lhs = 0, rhs = 0;
  for (int64_t i = 0; i < gx.numel(); ++i) lhs += gx[i] * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * sy[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(ScatterChannels, IdentityRequiresMatchingShape) {
  Tensor g(Shape{1, 2, 1, 1});
  EXPECT_THROW(scatter_channels(g, {}, Shape{1, 3, 1, 1}),
               std::invalid_argument);
}

// -------------------------------------------------------- TwoBranchModel ---

TEST(TwoBranchModel, FusedForwardMatchesManualComputation) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 7);
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{2, 3, 6, 6}, rng);

  // Manual: out_R/out_T per stage with element-wise adds.
  Tensor out_r = x, fused = x;
  for (int i = 0; i < model.num_stages(); ++i) {
    out_r = model.stage(i).exposed->forward(out_r, false);
    Tensor out_t = model.stage(i).secure->forward(fused, false);
    out_t.add_(out_r);
    fused = out_t;
  }
  Tensor got = model.forward(x, false);
  EXPECT_TRUE(allclose(got, fused, 1e-5f, 1e-5f));
}

TEST(TwoBranchModel, ExposedOnlyIgnoresSecureBranch) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 8);
  Rng rng(4);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  Tensor manual = x;
  for (int i = 0; i < model.num_stages(); ++i) {
    manual = model.stage(i).exposed->forward(manual, false);
  }
  EXPECT_TRUE(allclose(model.forward_exposed_only(x), manual, 1e-6f,
                       1e-6f));
}

TEST(TwoBranchModel, SecureOnlySkipsFusion) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 9);
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  Tensor manual = x;
  for (int i = 0; i < model.num_stages(); ++i) {
    manual = model.stage(i).secure->forward(manual, false);
  }
  EXPECT_TRUE(allclose(model.forward_secure_only(x, false), manual, 1e-6f,
                       1e-6f));
}

TEST(TwoBranchModel, GradientCheckThroughFusion) {
  TwoBranchModel model = tiny_vgg_two_branch(3, 2, 10);
  Rng rng(6);
  Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  Tensor y = model.forward(x, true);
  Tensor w = Tensor::randn(y.shape(), rng);
  model.zero_grad();
  model.backward(w);

  auto params = model.params();
  std::vector<Tensor> analytic;
  for (auto& p : params) analytic.push_back(*p.grad);

  auto loss_at = [&]() {
    Tensor yy = model.forward(x, true);
    double s = 0;
    for (int64_t i = 0; i < yy.numel(); ++i) s += w[i] * yy[i];
    return s;
  };
  const float eps = 1e-2f;
  Rng pick(61);
  int checked = 0;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& value = *params[pi].value;
    for (int s = 0; s < 4; ++s) {
      const int64_t i = pick.uniform_int(value.numel());
      const float orig = value[i];
      const double l0 = loss_at();
      value[i] = orig + eps;
      const double lp = loss_at();
      value[i] = orig - eps;
      const double lm = loss_at();
      value[i] = orig;
      const double fp = (lp - l0) / eps, fm = (l0 - lm) / eps;
      if (std::fabs(fp - fm) > 0.02 * std::max(1.0, std::fabs(fp + fm) / 2)) {
        continue;  // ReLU kink
      }
      const double fd = (fp + fm) / 2;
      EXPECT_NEAR(analytic[pi][i], fd, 0.03 * std::max(1.0, std::fabs(fd)))
          << params[pi].name << "[" << i << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);  // the kink filter must not reject everything
}

TEST(TwoBranchModel, FreezeExposedLeavesExposedUntouched) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 11);
  Rng rng(7);
  Tensor x = Tensor::randn(Shape{2, 3, 6, 6}, rng);
  // Snapshot exposed weights.
  std::vector<Tensor> before;
  for (auto& p : model.params_exposed()) before.push_back(*p.value);

  Tensor y = model.forward(x, true, /*train_exposed=*/false);
  Tensor grad = Tensor::randn(y.shape(), rng);
  model.zero_grad();
  model.backward(grad, /*freeze_exposed=*/true);
  // All exposed grads must be zero; secure grads mostly non-zero.
  for (auto& p : model.params_exposed()) {
    EXPECT_FLOAT_EQ(p.grad->abs_sum(), 0.0f) << p.name;
  }
  double secure_grad_mass = 0;
  for (auto& p : model.params_secure()) secure_grad_mass += p.grad->abs_sum();
  EXPECT_GT(secure_grad_mass, 0.0);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(allclose(*model.params_exposed()[i].value, before[i], 0.0f,
                         0.0f));
  }
}

TEST(TwoBranchModel, BackwardWithoutForwardThrows) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 12);
  EXPECT_THROW(model.backward(Tensor(Shape{1, 3})), std::logic_error);
}

TEST(TwoBranchModel, MixedModeBackwardRejected) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 13);
  Rng rng(8);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  Tensor y = model.forward(x, true, /*train_exposed=*/false);
  // Exposed ran in eval mode: full backward is illegal, frozen backward OK.
  EXPECT_THROW(model.backward(y, /*freeze_exposed=*/false), std::logic_error);
}

TEST(TwoBranchModel, CloneIsIndependent) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 14);
  TwoBranchModel copy = model.clone();
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  EXPECT_TRUE(allclose(model.forward(x, false), copy.forward(x, false), 0.0f,
                       0.0f));
  (*model.params()[0].value)[0] += 1.0f;
  EXPECT_FALSE(allclose(model.forward(x, false), copy.forward(x, false)));
}

TEST(TwoBranchModel, ByteAccounting) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 15);
  // Stage 0: conv 3*4*9 + bn 4*4 floats; stage 1: conv 4*4*9 + bn 16;
  // head: dense 4*3+3.
  const int64_t expected =
      (3 * 4 * 9 + 16 + 4 * 4 * 9 + 16 + 4 * 3 + 3) * 4;
  EXPECT_EQ(model.secure_param_bytes(), expected);
  EXPECT_EQ(model.exposed_param_bytes(), expected);
  EXPECT_EQ(model.secure_bn_channels(), 8);
}

// ---------------------------------------------------------- compute_keep ---

TEST(ComputeKeep, ThresholdsByCompositeWeight) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 16);
  const auto points = tiny_vgg_points();
  // Hand-set gammas: point 0 channels get composites {0.2, 1.2, 2.2, 3.2},
  // point 1 gets {15, 16, 17, 18}.
  for (int p = 0; p < 2; ++p) {
    const ResolvedPoint rp = resolve_point(model, points[p]);
    for (int64_t c = 0; c < 4; ++c) {
      rp.bn_exposed->gamma()[c] = (p == 0) ? 0.0f : 5.0f;
      rp.bn_secure->gamma()[c] = (p == 0) ? 0.2f + static_cast<float>(c)
                                          : 10.0f + static_cast<float>(c);
    }
  }
  // ratio 0.25 over 8 channels -> prune the 2 smallest composites (0.2 and
  // 1.2), both in point 0; point 1 is untouched.
  auto keep = compute_keep_lists(model, points, 0.25, 1,
                                 PruneConfig::Criterion::kAbsCompositeSum);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(keep[0], (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(keep[1], (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(ComputeKeep, CriterionVariantsDifferOnCancellation) {
  // |gR + gT| treats opposite-sign pairs as unimportant; |gR| + |gT| does
  // not — the distinction the ablation bench measures.
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 161);
  const auto points = tiny_vgg_points();
  const ResolvedPoint rp = resolve_point(model, points[0]);
  // Channel 0: perfectly cancelling pair; others strongly positive.
  for (int64_t c = 0; c < 4; ++c) {
    rp.bn_exposed->gamma()[c] = (c == 0) ? 2.0f : 3.0f;
    rp.bn_secure->gamma()[c] = (c == 0) ? -2.0f : 3.0f;
  }
  const ResolvedPoint rp1 = resolve_point(model, points[1]);
  for (int64_t c = 0; c < 4; ++c) {
    rp1.bn_exposed->gamma()[c] = 10.0f;
    rp1.bn_secure->gamma()[c] = 10.0f;
  }
  auto composite = compute_keep_lists(
      model, points, 0.125, 1, PruneConfig::Criterion::kAbsCompositeSum);
  auto sum_abs = compute_keep_lists(model, points, 0.125, 1,
                                    PruneConfig::Criterion::kSumOfAbs);
  // Composite prunes the cancelling channel 0 ...
  EXPECT_EQ(composite[0], (std::vector<int64_t>{1, 2, 3}));
  // ... while sum-of-abs sees it as important (|2|+|-2| = 4 > 3+3? no: 6).
  // Channel 0 scores 4 under sum-of-abs vs 6 for others: still the smallest,
  // but above the global threshold only if another point has smaller values.
  EXPECT_EQ(sum_abs[0].size(), 3u);
}

TEST(ComputeKeep, MinChannelsFloor) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 17);
  const auto points = tiny_vgg_points();
  // Make every channel of point 0 tiny: naive thresholding would empty it.
  const ResolvedPoint rp = resolve_point(model, points[0]);
  for (int64_t c = 0; c < 4; ++c) {
    rp.bn_exposed->gamma()[c] = 1e-4f * (c + 1);
    rp.bn_secure->gamma()[c] = 0.0f;
  }
  auto keep = compute_keep_lists(model, points, 0.5, 2,
                                 PruneConfig::Criterion::kAbsCompositeSum);
  EXPECT_EQ(keep[0].size(), 2u);
  // The floor keeps the strongest channels, in index order.
  EXPECT_EQ(keep[0], (std::vector<int64_t>{2, 3}));
}

class KeepRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(KeepRatioSweep, KeepsAreSortedSubsetsAndRespectRatio) {
  const double ratio = GetParam();
  TwoBranchModel model = tiny_vgg_two_branch(8, 3, 18);
  const auto points = tiny_vgg_points();
  auto keep = compute_keep_lists(model, points, ratio, 1,
                                 PruneConfig::Criterion::kAbsCompositeSum);
  int64_t kept = 0, total = 0;
  for (size_t p = 0; p < keep.size(); ++p) {
    EXPECT_TRUE(std::is_sorted(keep[p].begin(), keep[p].end()));
    EXPECT_GE(keep[p].size(), 1u);
    kept += static_cast<int64_t>(keep[p].size());
    total += resolve_point(model, points[p]).bn_secure->channels();
  }
  // At most ~ratio of channels pruned (floor can keep a few extra).
  EXPECT_GE(kept, total - static_cast<int64_t>(ratio * total) - 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, KeepRatioSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.6));

// ------------------------------------------------------ apply_channel_keep -

TEST(ApplyKeep, InterfaceShrinksBothBranchesAndConsumers) {
  TwoBranchModel model = tiny_vgg_two_branch(6, 3, 19);
  apply_channel_keep(model, {PrunePoint::Kind::kInterface, 0}, {1, 3, 5});
  const ResolvedPoint rp =
      resolve_point(model, {PrunePoint::Kind::kInterface, 0});
  EXPECT_EQ(rp.bn_exposed->channels(), 3);
  EXPECT_EQ(rp.bn_secure->channels(), 3);
  // Next stage conv must now expect 3 input channels; model still runs.
  Rng rng(10);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), Shape({1, 3}));
}

TEST(ApplyKeep, LastInterfaceShrinksHeadDense) {
  TwoBranchModel model = tiny_vgg_two_branch(6, 3, 20);
  apply_channel_keep(model, {PrunePoint::Kind::kInterface, 1}, {0, 2});
  auto* head_r =
      dynamic_cast<Sequential*>(model.stage(2).exposed.get());
  ASSERT_NE(head_r, nullptr);
  auto* dense = head_r->find_nth<Dense>(0);
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->in_features(), 2);
  Rng rng(11);
  Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), Shape({1, 3}));
}

TEST(ApplyKeep, PreservesKeptChannelComputation) {
  // Interface pruning must keep the *function* of retained channels: the
  // fused output restricted to kept features only depends on kept channels.
  TwoBranchModel model = tiny_vgg_two_branch(4, 2, 21);
  Rng rng(12);
  Tensor x = Tensor::randn(Shape{1, 3, 5, 5}, rng);

  // Reference: compute stage-0 exposed output, keep channels {0, 2}.
  Tensor r0 = model.stage(0).exposed->forward(x, false);
  TwoBranchModel pruned = model.clone();
  apply_channel_keep(pruned, {PrunePoint::Kind::kInterface, 0}, {0, 2});
  Tensor r0_pruned = pruned.stage(0).exposed->forward(x, false);
  EXPECT_TRUE(allclose(r0_pruned, gather_channels(r0, {0, 2}), 1e-5f, 1e-5f));
}

TEST(ApplyKeep, InternalOnResidualPairKeepsInterface) {
  Rng rng_t(23);
  TwoBranchModel model;
  // Exposed: plain block; secure: residual block (the ResNet pairing).
  ResidualBlock proto(4, 4, 1, rng_t);
  auto plain = std::make_unique<Sequential>(nn::plain_main_branch(proto));
  model.add_stage(std::move(plain),
                  std::make_unique<ResidualBlock>(4, 4, 1, rng_t));
  apply_channel_keep(model, {PrunePoint::Kind::kInternal, 0}, {1, 2});
  const ResolvedPoint rp =
      resolve_point(model, {PrunePoint::Kind::kInternal, 0});
  EXPECT_EQ(rp.bn_exposed->channels(), 2);
  EXPECT_EQ(rp.bn_secure->channels(), 2);
  Rng rng(13);
  Tensor x = Tensor::randn(Shape{1, 4, 6, 6}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), Shape({1, 4, 6, 6}));
}

TEST(ApplyKeep, EmptyKeepRejected) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 24);
  EXPECT_THROW(apply_channel_keep(model, {PrunePoint::Kind::kInterface, 0}, {}),
               std::invalid_argument);
}

// ------------------------------------------------------ knowledge transfer -

TEST(KnowledgeTransfer, LearnsAboveChance) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 25);
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(160, 0);
  const auto test = tiny_dataset(80, 1);

  const double before = evaluate_fused(model, test);

  TransferConfig cfg;
  cfg.epochs = 6;
  cfg.batch_size = 32;
  cfg.lr = 0.05;
  cfg.lambda = 1e-3;
  cfg.augment = false;
  cfg.seed = 5;
  const TransferResult result =
      knowledge_transfer(model, points, train, test, cfg);

  EXPECT_GT(result.final_acc, 0.4);  // chance = 0.25
  EXPECT_GT(result.final_acc, before);
  ASSERT_EQ(result.epochs.size(), 6u);
  EXPECT_GT(result.epochs[0].sparsity_penalty, 0.0);
}

TEST(KnowledgeTransfer, SparsityPenaltyShrinksGammasVsControl) {
  // Two identical runs, one with the Eq. 1 penalty, one without: the
  // penalized run must end with strictly smaller BN scale mass.
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(160, 0);
  const auto test = tiny_dataset(80, 1);
  auto mean_abs = [](const std::vector<float>& v) {
    double s = 0;
    for (float x : v) s += std::fabs(x);
    return s / static_cast<double>(v.size());
  };

  double mass[2] = {0.0, 0.0};
  const double lambdas[2] = {0.0, 0.05};
  for (int run = 0; run < 2; ++run) {
    TwoBranchModel model = tiny_vgg_two_branch(8, 4, 26);
    TransferConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 32;
    cfg.lr = 0.05;
    cfg.lambda = lambdas[run];
    cfg.augment = false;
    cfg.seed = 5;
    knowledge_transfer(model, points, train, test, cfg);
    const BnGammas g = collect_bn_gammas(model, points);
    mass[run] = mean_abs(g.exposed) + mean_abs(g.secure);
  }
  EXPECT_LT(mass[1], mass[0]);
}

TEST(KnowledgeTransfer, CollectBnGammasCountsMatch) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 26);
  const BnGammas g = collect_bn_gammas(model, tiny_vgg_points());
  EXPECT_EQ(g.exposed.size(), 16u);  // 2 points x 8 channels
  EXPECT_EQ(g.secure.size(), 16u);
}

// ---------------------------------------------------------------- Pruner ---

TEST(Pruner, RunShrinksSecureBranchWithinBudget) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 27);
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(160, 0);
  const auto test = tiny_dataset(80, 1);

  TransferConfig warm;
  warm.epochs = 4;
  warm.batch_size = 32;
  warm.lambda = 1e-3;
  warm.augment = false;
  knowledge_transfer(model, points, train, test, warm);

  const int64_t bytes_before = model.secure_param_bytes();
  PruneConfig cfg;
  cfg.ratio = 0.2;
  cfg.acc_drop_budget = 0.5;  // generous: accept every iteration
  cfg.max_iterations = 2;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 32;
  cfg.finetune.augment = false;
  TwoBranchPruner pruner(cfg);
  const PruneResult result = pruner.run(model, points, train, test);

  EXPECT_TRUE(result.any_accepted);
  EXPECT_EQ(result.accepted_count, 2);
  EXPECT_LT(model.secure_param_bytes(), bytes_before);
  ASSERT_FALSE(result.iterations.empty());
  // Bytes shrink monotonically across accepted iterations.
  int64_t prev = bytes_before;
  for (const auto& it : result.iterations) {
    if (!it.accepted) continue;
    EXPECT_LT(it.secure_param_bytes_after, prev);
    prev = it.secure_param_bytes_after;
  }
  // Keep lists exist for each point and the model still runs.
  ASSERT_EQ(result.last_keep.size(), points.size());
  Rng rng(14);
  Tensor x = Tensor::randn(Shape{1, 3, 12, 12}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), Shape({1, 4}));
}

TEST(Pruner, ZeroBudgetRevertsFirstIteration) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 28);
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(120, 0);
  const auto test = tiny_dataset(80, 1);
  const int64_t bytes_before = model.secure_param_bytes();

  PruneConfig cfg;
  cfg.ratio = 0.5;                // savage pruning
  cfg.acc_drop_budget = -1.0;     // impossible: any drop (or none) rejects
  cfg.max_iterations = 3;
  cfg.finetune.epochs = 0;        // no recovery
  TwoBranchPruner pruner(cfg);
  const PruneResult result = pruner.run(model, points, train, test);

  EXPECT_FALSE(result.any_accepted);
  EXPECT_EQ(model.secure_param_bytes(), bytes_before);  // reverted
}

// -------------------------------------------------------------- Rollback ---

TEST(Rollback, RestoresExposedAndInstallsMaps) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 29);
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(120, 0);
  const auto test = tiny_dataset(80, 1);

  TransferConfig warm;
  warm.epochs = 2;
  warm.batch_size = 32;
  warm.augment = false;
  knowledge_transfer(model, points, train, test, warm);

  PruneConfig cfg;
  cfg.ratio = 0.25;
  cfg.acc_drop_budget = 1.0;
  cfg.max_iterations = 1;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = 32;
  cfg.finetune.augment = false;
  TwoBranchPruner pruner(cfg);
  PruneResult pr = pruner.run(model, points, train, test);
  ASSERT_TRUE(pr.any_accepted);

  // Keep a copy of the pre-rollback snapshot for checking weights.
  TwoBranchModel pre_copy = pr.pre_last_accepted.clone();
  const RollbackReport rb = rollback_finalize(
      model, std::move(pr.pre_last_accepted), points, pr.last_keep);
  ASSERT_TRUE(rb.applied);
  EXPECT_GT(rb.exposed_bytes_after, rb.exposed_bytes_before);

  // Exposed branch equals the snapshot bit-for-bit.
  for (int i = 0; i < model.num_stages(); ++i) {
    auto got = model.stage(i).exposed->params();
    auto want = pre_copy.stage(i).exposed->params();
    ASSERT_EQ(got.size(), want.size());
    for (size_t p = 0; p < got.size(); ++p) {
      EXPECT_TRUE(allclose(*got[p].value, *want[p].value, 0.0f, 0.0f));
    }
  }
  // Architectural divergence is visible wherever pruning actually removed
  // channels in the last round.
  EXPECT_EQ(architectural_divergence(model, points),
            static_cast<int>(rb.remapped_stages.size()));
  // Fused inference still works, with gather alignment.
  Rng rng(15);
  Tensor x = Tensor::randn(Shape{1, 3, 12, 12}, rng);
  EXPECT_EQ(model.forward(x, false).shape(), Shape({1, 4}));
  // Exposed-only attack path also still works (it is a full network).
  EXPECT_EQ(model.forward_exposed_only(x).shape(), Shape({1, 4}));
}

TEST(Rollback, NoAcceptedIterationIsNoOp) {
  TwoBranchModel model = tiny_vgg_two_branch(4, 3, 30);
  TwoBranchModel empty;
  const RollbackReport rb =
      rollback_finalize(model, std::move(empty), tiny_vgg_points(), {});
  EXPECT_FALSE(rb.applied);
}

// -------------------------------------------------------------- Pipeline ---

TEST(Pipeline, EndToEndReportIsConsistent) {
  TwoBranchModel model = tiny_vgg_two_branch(8, 4, 31);
  const auto points = tiny_vgg_points();
  const auto train = tiny_dataset(160, 0);
  const auto test = tiny_dataset(80, 1);

  PipelineConfig cfg;
  cfg.transfer.epochs = 4;
  cfg.transfer.batch_size = 32;
  cfg.transfer.lambda = 1e-3;
  cfg.transfer.augment = false;
  cfg.prune.ratio = 0.2;
  cfg.prune.acc_drop_budget = 0.3;
  cfg.prune.max_iterations = 2;
  cfg.prune.finetune.epochs = 1;
  cfg.prune.finetune.batch_size = 32;
  cfg.prune.finetune.augment = false;
  cfg.recovery.epochs = 1;
  cfg.recovery.batch_size = 32;
  cfg.recovery.augment = false;

  TbnetPipeline pipeline(cfg);
  const PipelineReport report = pipeline.run(model, points, train, test);

  EXPECT_GT(report.transfer_acc, 0.3);
  EXPECT_GT(report.final_acc, 0.3);
  EXPECT_GE(report.secure_bytes_initial, report.secure_bytes_final);
  if (report.rollback_applied) {
    EXPECT_GT(report.exposed_bytes_final, report.secure_bytes_final);
  }
  // The attacker's direct-use accuracy is measured and bounded.
  EXPECT_GE(report.attack_direct_acc, 0.0);
  EXPECT_LE(report.attack_direct_acc, 1.0);
}

}  // namespace
}  // namespace tbnet::core
