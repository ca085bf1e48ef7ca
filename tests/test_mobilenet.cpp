// Tests for the depthwise-separable (MobileNet-style) extension: the
// DepthwiseConv2d layer, the family builder, and the full TBNet pipeline
// over separable blocks.

#include <gtest/gtest.h>

#include <cmath>

#include "core/pipeline.h"
#include "core/pruner.h"
#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "tee/optee_api.h"

namespace tbnet {
namespace {

models::ModelConfig mobile_cfg(int blocks = 4) {
  models::ModelConfig cfg;
  cfg.family = models::Family::kMobileNet;
  cfg.depth = blocks;
  cfg.classes = 4;
  cfg.width_mult = 0.125;
  cfg.seed = 33;
  return cfg;
}

TEST(DepthwiseConv2d, ShapesAndMacs) {
  Rng rng(1);
  nn::DepthwiseConv2d dw(8, {.kernel = 3, .stride = 2, .pad = 1}, rng);
  const Shape in{2, 8, 16, 16};
  EXPECT_EQ(dw.out_shape(in), Shape({2, 8, 8, 8}));
  EXPECT_EQ(dw.macs(in), 2 * 8 * 8 * 8 * 9);
  EXPECT_THROW(dw.out_shape(Shape{1, 4, 16, 16}), std::invalid_argument);
}

TEST(DepthwiseConv2d, ChannelsAreIndependent) {
  Rng rng(2);
  nn::DepthwiseConv2d dw(2, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
  Tensor y = dw.forward(x, false);
  // Zeroing channel 1's input must not change channel 0's output.
  Tensor x2 = x;
  for (int64_t p = 0; p < 25; ++p) x2[25 + p] = 0.0f;
  Tensor y2 = dw.forward(x2, false);
  for (int64_t p = 0; p < 25; ++p) EXPECT_FLOAT_EQ(y[p], y2[p]);
}

TEST(DepthwiseConv2d, MatchesFullConvWithDiagonalKernel) {
  // A depthwise conv equals a full conv whose cross-channel taps are zero.
  Rng rng(3);
  nn::DepthwiseConv2d dw(2, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  nn::Conv2d full(2, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  full.weight().zero();
  for (int64_t c = 0; c < 2; ++c) {
    for (int64_t k = 0; k < 9; ++k) {
      // full.weight[c, c, ky, kx] = dw.weight[c, ky, kx]
      full.weight()[((c * 2 + c) * 9) + k] = dw.weight()[c * 9 + k];
    }
  }
  Tensor x = Tensor::randn(Shape{2, 2, 6, 6}, rng);
  EXPECT_TRUE(allclose(dw.forward(x, false), full.forward(x, false), 1e-4f,
                       1e-5f));
}

TEST(DepthwiseConv2d, GradientCheck) {
  Rng rng(4);
  nn::DepthwiseConv2d dw(3, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
  Tensor y = dw.forward(x, true);
  Tensor w = Tensor::randn(y.shape(), rng);
  dw.zero_grad();
  Tensor dx = dw.backward(w);

  auto loss = [&](const Tensor& xx) {
    Tensor yy = dw.forward(xx, true);
    double s = 0;
    for (int64_t i = 0; i < yy.numel(); ++i) s += w[i] * yy[i];
    return s;
  };
  const float eps = 1e-2f;
  Rng pick(5);
  for (int s = 0; s < 20; ++s) {
    const int64_t i = pick.uniform_int(x.numel());
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fd = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx[i], fd, 2e-2 * std::max(1.0, std::fabs(fd)));
  }
}

TEST(DepthwiseConv2d, SelectChannels) {
  Rng rng(6);
  nn::DepthwiseConv2d dw(4, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  const Tensor w_before = dw.weight();
  dw.select_channels({1, 3});
  EXPECT_EQ(dw.channels(), 2);
  for (int64_t k = 0; k < 9; ++k) {
    EXPECT_FLOAT_EQ(dw.weight()[k], w_before[9 + k]);
    EXPECT_FLOAT_EQ(dw.weight()[9 + k], w_before[27 + k]);
  }
  EXPECT_THROW(dw.select_channels({}), std::invalid_argument);
}

TEST(DepthwiseConv2d, SerializationRoundTrip) {
  Rng rng(7);
  nn::DepthwiseConv2d dw(3, {.kernel = 3, .stride = 2, .pad = 1}, rng);
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, dw);
  ByteReader r(bytes);
  auto loaded = nn::load_model(r);
  Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  EXPECT_TRUE(allclose(dw.forward(x, false), loaded->forward(x, false), 0.0f,
                       0.0f));
}

TEST(MobileNet, BuilderShapesAndPrunePoints) {
  const auto cfg = mobile_cfg(4);
  EXPECT_EQ(models::num_stages(cfg), 6);  // stem + 4 blocks + head
  nn::Sequential victim = models::build_victim(cfg);
  Rng rng(8);
  EXPECT_EQ(victim.forward(Tensor::randn(Shape{2, 3, 32, 32}, rng), false)
                .shape(),
            Shape({2, 4}));
  const auto points = models::prune_points(cfg);
  EXPECT_EQ(points.size(), 5u);  // every stage but the head
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  for (const auto& p : points) {
    EXPECT_GT(core::resolve_point(tb, p).bn_secure->channels(), 0);
  }
}

TEST(MobileNet, InterfacePruningCascadesThroughDepthwise) {
  const auto cfg = mobile_cfg(4);
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  // Prune the stem output: the next block's depthwise conv, its BN, and the
  // pointwise conv input must all shrink together.
  const core::PrunePoint point{core::PrunePoint::Kind::kInterface, 0};
  const auto rp = core::resolve_point(tb, point);
  std::vector<int64_t> keep;
  for (int64_t c = 0; c + 2 < rp.bn_secure->channels(); ++c) keep.push_back(c);
  core::apply_channel_keep(tb, point, keep);

  Rng rng(9);
  Tensor x = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  EXPECT_EQ(tb.forward(x, false).shape(), Shape({1, 4}));
  EXPECT_EQ(tb.forward_exposed_only(x).shape(), Shape({1, 4}));
}

TEST(MobileNet, FullPipelineAndDeployment) {
  const auto cfg = mobile_cfg(3);
  auto [train, test] = data::SyntheticCifar::make_split(4, 96, 48, 44, 32,
                                                        0.3);
  nn::Sequential victim = models::build_victim(cfg);
  models::TrainConfig vt;
  vt.epochs = 2;
  vt.batch_size = 32;
  vt.augment = false;
  models::train_classifier(victim, train, test, vt);

  core::TwoBranchModel model = models::build_two_branch(victim, cfg);
  core::PipelineConfig pc;
  pc.transfer.epochs = 2;
  pc.transfer.batch_size = 32;
  pc.transfer.augment = false;
  pc.prune.ratio = 0.15;
  pc.prune.acc_drop_budget = 0.5;
  pc.prune.max_iterations = 2;
  pc.prune.finetune.epochs = 1;
  pc.prune.finetune.batch_size = 32;
  pc.prune.finetune.augment = false;
  pc.recovery.epochs = 0;
  const auto report = core::TbnetPipeline(pc).run(
      model, models::prune_points(cfg), train, test);
  EXPECT_GT(report.final_acc, 0.0);

  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::DeployedTBNet deployed(model, ctx);
  const data::Sample s = test.get(0);
  const Tensor want =
      model.forward(s.image.reshaped(Shape{1, 3, 32, 32}), false);
  // Folded/fused engine: tight relative tolerance, not bitwise.
  EXPECT_TRUE(allclose(deployed.infer(s.image), want, 1e-4f, 1e-5f));
}

}  // namespace
}  // namespace tbnet
