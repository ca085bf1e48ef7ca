// Unit tests for the nn layer zoo: forward values, numerical gradient checks
// for every backward pass, pruning edits, optimizer and serialization.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/init.h"
#include "nn/optimizer.h"
#include "nn/pool.h"
#include "nn/quant.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace tbnet::nn {
namespace {

/// loss(x) = sum(w .* layer(x)); returns analytic dloss/dx and compares a
/// sampled subset of entries against central differences. Also checks the
/// parameter gradients when `check_params` is set.
void check_gradients(Layer& layer, const Tensor& input, uint64_t seed,
                     bool check_params = true, float tol = 2e-2f) {
  Rng rng(seed);
  Tensor x = input;
  Tensor y = layer.forward(x, /*train=*/true);
  const Tensor w = Tensor::randn(y.shape(), rng);

  layer.zero_grad();
  Tensor dx = layer.backward(w);
  ASSERT_EQ(dx.shape().dims(), x.shape().dims());

  auto loss_at = [&](const Tensor& xx) -> double {
    Tensor yy = layer.forward(xx, /*train=*/true);
    double s = 0;
    for (int64_t i = 0; i < yy.numel(); ++i) s += w[i] * yy[i];
    return s;
  };

  // Save parameter gradients before the finite-difference passes clobber the
  // layer's forward cache (they do not touch grads, but forward(train) does
  // recompute caches, which is fine).
  std::vector<Tensor> param_grads;
  for (ParamRef p : layer.params()) param_grads.push_back(*p.grad);

  // The loss is piecewise-linear in ReLU nets, so a finite difference across
  // a kink is garbage. Compare the one-sided slopes on each flank; if they
  // disagree, a ReLU boundary sits inside (or at) the interval — skip the
  // sample. Where they agree the function is locally smooth and the central
  // difference is reliable.
  const float eps = 1e-2f;
  auto fd_or_skip = [&](const std::function<double(float)>& loss_shift,
                        double* fd) -> bool {
    const double l0 = loss_shift(0.0f);
    const double fp = (loss_shift(eps) - l0) / eps;
    const double fm = (l0 - loss_shift(-eps)) / eps;
    if (std::fabs(fp - fm) > 0.02 * std::max(1.0, std::fabs(fp + fm) / 2)) {
      return false;
    }
    *fd = (fp + fm) / 2.0;
    return true;
  };

  Rng pick(seed ^ 0xABCD);
  const int64_t samples = std::min<int64_t>(x.numel(), 24);
  for (int64_t s = 0; s < samples; ++s) {
    const int64_t i = pick.uniform_int(x.numel());
    double fd = 0.0;
    const bool ok = fd_or_skip(
        [&](float d) {
          Tensor xs = x;
          xs[i] += d;
          return loss_at(xs);
        },
        &fd);
    if (!ok) continue;
    const double scale = std::max(1.0, std::fabs(fd));
    EXPECT_NEAR(dx[i], fd, tol * scale) << "input grad at " << i;
  }

  if (!check_params) return;
  auto params = layer.params();
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Tensor& value = *params[pi].value;
    const Tensor& analytic = param_grads[pi];
    const int64_t psamples = std::min<int64_t>(value.numel(), 12);
    for (int64_t s = 0; s < psamples; ++s) {
      const int64_t i = pick.uniform_int(value.numel());
      const float orig = value[i];
      double fd = 0.0;
      const bool ok = fd_or_skip(
          [&](float d) {
            value[i] = orig + d;
            const double l = loss_at(x);
            value[i] = orig;
            return l;
          },
          &fd);
      if (!ok) continue;
      const double scale = std::max(1.0, std::fabs(fd));
      EXPECT_NEAR(analytic[i], fd, tol * scale)
          << "param " << params[pi].name << " grad at " << i;
    }
  }
}

// --------------------------------------------------------------- Conv2d ----

TEST(Conv2d, OutShapeAndMacs) {
  Rng rng(1);
  Conv2d conv(3, 8, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
  const Shape in{2, 3, 16, 16};
  EXPECT_EQ(conv.out_shape(in), Shape({2, 8, 16, 16}));
  EXPECT_EQ(conv.macs(in), 2 * 8 * 16 * 16 * 3 * 3 * 3);
}

TEST(Conv2d, StrideAndPaddingGeometry) {
  Rng rng(2);
  Conv2d conv(1, 1, {.kernel = 3, .stride = 2, .pad = 0, .bias = false}, rng);
  EXPECT_EQ(conv.out_shape(Shape{1, 1, 7, 9}), Shape({1, 1, 3, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(3);
  Conv2d conv(1, 1, {.kernel = 1, .stride = 1, .pad = 0, .bias = false}, rng);
  conv.weight().fill(1.0f);
  Tensor x = Tensor::randn(Shape{1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x, false);
  EXPECT_TRUE(allclose(y, x));
}

TEST(Conv2d, KnownConvolutionValue) {
  Rng rng(4);
  Conv2d conv(1, 1, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
  conv.weight().fill(1.0f);  // 3x3 box filter
  Tensor x = Tensor::ones(Shape{1, 1, 3, 3});
  Tensor y = conv.forward(x, false);
  // Center sees 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at({0, 0, 1, 1}), 9.0f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 1}), 6.0f);
}

TEST(Conv2d, BiasIsAdded) {
  Rng rng(5);
  Conv2d conv(1, 2, {.kernel = 1, .stride = 1, .pad = 0, .bias = true}, rng);
  conv.weight().zero();
  conv.bias()[0] = 1.5f;
  conv.bias()[1] = -2.0f;
  Tensor y = conv.forward(Tensor::ones(Shape{1, 1, 2, 2}), false);
  EXPECT_FLOAT_EQ(y.at({0, 0, 0, 0}), 1.5f);
  EXPECT_FLOAT_EQ(y.at({0, 1, 1, 1}), -2.0f);
}

TEST(Conv2d, GradientCheck) {
  Rng rng(6);
  Conv2d conv(2, 3, {.kernel = 3, .stride = 1, .pad = 1, .bias = true}, rng);
  check_gradients(conv, Tensor::randn(Shape{2, 2, 5, 5}, rng), 61);
}

TEST(Conv2d, GradientCheckStrided) {
  Rng rng(7);
  Conv2d conv(3, 4, {.kernel = 3, .stride = 2, .pad = 1, .bias = false}, rng);
  check_gradients(conv, Tensor::randn(Shape{2, 3, 8, 8}, rng), 71);
}

TEST(Conv2d, PruneOutputChannels) {
  Rng rng(8);
  Conv2d conv(2, 4, {.kernel = 3, .stride = 1, .pad = 1, .bias = true}, rng);
  Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
  Tensor y_full = conv.forward(x, false);
  conv.select_out_channels({1, 3});
  EXPECT_EQ(conv.out_channels(), 2);
  Tensor y = conv.forward(x, false);
  for (int64_t p = 0; p < 36; ++p) {
    EXPECT_FLOAT_EQ(y[p], y_full[1 * 36 + p]);
    EXPECT_FLOAT_EQ(y[36 + p], y_full[3 * 36 + p]);
  }
}

TEST(Conv2d, PruneInputChannelsMatchesReducedInput) {
  Rng rng(9);
  Conv2d conv(3, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
  Tensor x = Tensor::randn(Shape{1, 3, 5, 5}, rng);
  // Zero channel 1 of the input; then pruning channel 1 must be equivalent.
  Tensor x_zeroed = x;
  for (int64_t p = 0; p < 25; ++p) x_zeroed[25 + p] = 0.0f;
  Tensor y_ref = conv.forward(x_zeroed, false);
  conv.select_in_channels({0, 2});
  Tensor x_small(Shape{1, 2, 5, 5});
  for (int64_t p = 0; p < 25; ++p) {
    x_small[p] = x[p];
    x_small[25 + p] = x[2 * 25 + p];
  }
  Tensor y = conv.forward(x_small, false);
  EXPECT_TRUE(allclose(y, y_ref, 1e-4f, 1e-5f));
}

TEST(Conv2d, PruneAllChannelsThrows) {
  Rng rng(10);
  Conv2d conv(2, 2, {.kernel = 1, .stride = 1, .pad = 0, .bias = false}, rng);
  EXPECT_THROW(conv.select_out_channels({}), std::invalid_argument);
  EXPECT_THROW(conv.select_in_channels({}), std::invalid_argument);
  EXPECT_THROW(conv.select_out_channels({5}), std::out_of_range);
}

TEST(Conv2d, RejectsWrongInput) {
  Rng rng(11);
  Conv2d conv(3, 4, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 2, 8, 8}), false),
               std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 4, 8, 8})), std::logic_error);
}

// ---------------------------------------------------------- BatchNorm2d ----

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  Rng rng(12);
  Tensor x = Tensor::randn(Shape{4, 2, 6, 6}, rng, 3.0f, 2.0f);
  Tensor y = bn.forward(x, /*train=*/true);
  // Per-channel mean ~0, var ~1 after normalization with gamma=1, beta=0.
  for (int64_t c = 0; c < 2; ++c) {
    double mean = 0, var = 0;
    int64_t count = 0;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t p = 0; p < 36; ++p) {
        const float v = y[(n * 2 + c) * 36 + p];
        mean += v;
        ++count;
      }
    }
    mean /= count;
    for (int64_t n = 0; n < 4; ++n) {
      for (int64_t p = 0; p < 36; ++p) {
        const double d = y[(n * 2 + c) * 36 + p] - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, RunningStatsConvergeToBatchStats) {
  BatchNorm2d bn(1, 1e-5f, /*momentum=*/0.5f);
  Rng rng(13);
  Tensor x = Tensor::randn(Shape{8, 1, 4, 4}, rng, -1.0f, 0.5f);
  for (int i = 0; i < 20; ++i) bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], -1.0f, 0.1f);
  EXPECT_NEAR(bn.running_var()[0], 0.25f, 0.05f);
}

TEST(BatchNorm2d, EvalModeUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.running_mean()[0] = 2.0f;
  bn.running_var()[0] = 4.0f;
  bn.gamma()[0] = 3.0f;
  bn.beta()[0] = 1.0f;
  Tensor x = Tensor::full(Shape{1, 1, 1, 1}, 4.0f);
  Tensor y = bn.forward(x, false);
  // (4-2)/2 * 3 + 1 = 4 (up to eps).
  EXPECT_NEAR(y[0], 4.0f, 1e-3f);
}

TEST(BatchNorm2d, GradientCheck) {
  BatchNorm2d bn(3);
  Rng rng(14);
  bn.gamma() = Tensor::randn(Shape{3}, rng, 1.0f, 0.2f);
  bn.beta() = Tensor::randn(Shape{3}, rng, 0.0f, 0.2f);
  check_gradients(bn, Tensor::randn(Shape{3, 3, 4, 4}, rng), 141);
}

TEST(BatchNorm2d, SelectChannels) {
  BatchNorm2d bn(4);
  for (int64_t c = 0; c < 4; ++c) {
    bn.gamma()[c] = static_cast<float>(c);
    bn.running_mean()[c] = 10.0f + static_cast<float>(c);
  }
  bn.select_channels({2, 3});
  EXPECT_EQ(bn.channels(), 2);
  EXPECT_FLOAT_EQ(bn.gamma()[0], 2.0f);
  EXPECT_FLOAT_EQ(bn.running_mean()[1], 13.0f);
  EXPECT_THROW(bn.select_channels({}), std::invalid_argument);
}

// ----------------------------------------------------------------- ReLU ----

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor x = Tensor::from({-1.0f, 0.0f, 2.0f});
  Tensor y = relu.forward(x, false);
  EXPECT_TRUE(allclose(y, Tensor::from({0.0f, 0.0f, 2.0f})));
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  Tensor x = Tensor::from({-1.0f, 3.0f});
  relu.forward(x, true);
  Tensor dx = relu.backward(Tensor::from({5.0f, 7.0f}));
  EXPECT_TRUE(allclose(dx, Tensor::from({0.0f, 7.0f})));
}

// ----------------------------------------------------------------- Pool ----

TEST(MaxPool2d, ForwardPicksMaxima) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from({1, 2, 3, 4,
                           5, 6, 7, 8,
                           9, 10, 11, 12,
                           13, 14, 15, 16})
                 .reshaped(Shape{1, 1, 4, 4});
  Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[3], 16.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x = Tensor::from({1, 2, 3, 4}).reshaped(Shape{1, 1, 2, 2});
  pool.forward(x, true);
  Tensor dx = pool.backward(Tensor::from({10.0f}).reshaped(Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(dx[3], 10.0f);
  EXPECT_FLOAT_EQ(dx[0] + dx[1] + dx[2], 0.0f);
}

TEST(MaxPool2d, GradientCheck) {
  Rng rng(15);
  MaxPool2d pool(2);
  check_gradients(pool, Tensor::randn(Shape{2, 2, 6, 6}, rng), 151, false);
}

TEST(GlobalAvgPool2d, ForwardAveragesAndShapes) {
  GlobalAvgPool2d gap;
  Tensor x = Tensor::from({1, 2, 3, 4, 10, 20, 30, 40})
                 .reshaped(Shape{1, 2, 2, 2});
  Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), Shape({1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
}

TEST(GlobalAvgPool2d, GradientCheck) {
  Rng rng(16);
  GlobalAvgPool2d gap;
  check_gradients(gap, Tensor::randn(Shape{2, 3, 4, 4}, rng), 161, false);
}

// ---------------------------------------------------------------- Dense ----

TEST(Dense, ForwardKnownValues) {
  Rng rng(17);
  Dense dense(2, 2, rng, true);
  dense.weight() = Tensor(Shape{2, 2}, {1, 2, 3, 4});
  dense.bias() = Tensor(Shape{2}, {0.5f, -0.5f});
  Tensor x = Tensor(Shape{1, 2}, {1, 1});
  Tensor y = dense.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y[1], 6.5f);   // 3+4-0.5
}

TEST(Dense, GradientCheck) {
  Rng rng(18);
  Dense dense(5, 3, rng, true);
  check_gradients(dense, Tensor::randn(Shape{4, 5}, rng), 181);
}

TEST(Dense, SelectInFeatures) {
  Rng rng(19);
  Dense dense(4, 2, rng, false);
  dense.weight() = Tensor(Shape{2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  dense.select_in_features({0, 3});
  EXPECT_EQ(dense.in_features(), 2);
  EXPECT_FLOAT_EQ(dense.weight()[0], 1.0f);
  EXPECT_FLOAT_EQ(dense.weight()[1], 4.0f);
  EXPECT_FLOAT_EQ(dense.weight()[2], 5.0f);
  EXPECT_FLOAT_EQ(dense.weight()[3], 8.0f);
}

TEST(Dense, SelectInChannelsSpansFeatureBlocks) {
  Rng rng(20);
  Dense dense(6, 1, rng, false);  // 3 channels x 2 features
  dense.weight() = Tensor(Shape{1, 6}, {1, 2, 3, 4, 5, 6});
  dense.select_in_channels({0, 2}, 2);
  EXPECT_EQ(dense.in_features(), 4);
  EXPECT_FLOAT_EQ(dense.weight()[2], 5.0f);
  EXPECT_THROW(dense.select_in_channels({0}, 5), std::invalid_argument);
}

// -------------------------------------------------------------- Flatten ----

TEST(Flatten, RoundTripsThroughBackward) {
  Flatten flat;
  Rng rng(21);
  Tensor x = Tensor::randn(Shape{2, 3, 2, 2}, rng);
  Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 12}));
  Tensor dx = flat.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
  EXPECT_TRUE(allclose(dx, x));
}

// -------------------------------------------------------- ResidualBlock ----

TEST(ResidualBlock, IdentitySkipShape) {
  Rng rng(22);
  ResidualBlock block(4, 4, 1, rng);
  EXPECT_FALSE(block.has_downsample());
  EXPECT_EQ(block.out_shape(Shape{1, 4, 8, 8}), Shape({1, 4, 8, 8}));
}

TEST(ResidualBlock, DownsampleSkipShape) {
  Rng rng(23);
  ResidualBlock block(4, 8, 2, rng);
  EXPECT_TRUE(block.has_downsample());
  EXPECT_EQ(block.out_shape(Shape{1, 4, 8, 8}), Shape({1, 8, 4, 4}));
}

TEST(ResidualBlock, GradientCheckIdentity) {
  Rng rng(24);
  ResidualBlock block(3, 3, 1, rng);
  check_gradients(block, Tensor::randn(Shape{2, 3, 5, 5}, rng), 241);
}

TEST(ResidualBlock, GradientCheckDownsample) {
  Rng rng(25);
  ResidualBlock block(3, 5, 2, rng);
  check_gradients(block, Tensor::randn(Shape{2, 3, 6, 6}, rng), 251);
}

TEST(ResidualBlock, PruneInternalKeepsInterface) {
  Rng rng(26);
  ResidualBlock block(4, 4, 1, rng);
  block.prune_internal({0, 2});
  EXPECT_EQ(block.internal_channels(), 2);
  EXPECT_EQ(block.in_channels(), 4);
  EXPECT_EQ(block.out_channels(), 4);
  Tensor x = Tensor::randn(Shape{1, 4, 6, 6}, rng);
  EXPECT_EQ(block.forward(x, false).shape(), Shape({1, 4, 6, 6}));
}

TEST(ResidualBlock, SeededMembersDrawInOrder) {
  // The seeded constructor draws conv1, conv2, then down_conv: the same
  // weights as kaiming_normal fills taken in that order from a twin Rng.
  Rng rng(28), twin(28);
  const ResidualBlock block(3, 5, 2, rng, 4);
  ASSERT_TRUE(block.has_downsample());
  const Tensor conv1 = kaiming_normal(Shape{4, 3, 3, 3}, 3 * 9, twin);
  const Tensor conv2 = kaiming_normal(Shape{5, 4, 3, 3}, 4 * 9, twin);
  const Tensor down = kaiming_normal(Shape{5, 3, 1, 1}, 3, twin);
  EXPECT_TRUE(allclose(block.conv1().weight(), conv1, 0.0f, 0.0f));
  EXPECT_TRUE(allclose(block.conv2().weight(), conv2, 0.0f, 0.0f));
  EXPECT_TRUE(allclose(block.down_conv().weight(), down, 0.0f, 0.0f));
  // Both Rngs are at the same point after the block's draws.
  EXPECT_EQ(rng.uniform_int(1 << 30), twin.uniform_int(1 << 30));
}

TEST(ResidualBlock, MembersMustChainIntoABlock) {
  Rng rng(29);
  const auto conv = [&rng](int64_t in, int64_t out, int64_t kernel,
                           int64_t stride, bool bias = false) {
    return std::make_unique<Conv2d>(
        in, out,
        Conv2d::Options{.kernel = kernel,
                        .stride = stride,
                        .pad = kernel / 2,
                        .bias = bias},
        rng);
  };
  const auto bn = [](int64_t c) { return std::make_unique<BatchNorm2d>(c); };
  // A well-formed 2 -> 4, stride-2 block; then one member broken at a time.
  const auto members = [&](int broken) {
    ResidualBlock::Members m;
    m.conv1 = conv(2, 3, 3, broken == 0 ? 1 : 2);  // 0: conv1 at stride 1
    m.bn1 = bn(broken == 1 ? 4 : 3);                // 1: bn1 too wide
    m.conv2 = conv(3, 4, 3, 1, broken == 2);        // 2: conv2 with a bias
    m.bn2 = bn(4);
    if (broken != 3) {                              // 3: no downsample
      m.down_conv = conv(2, 4, broken == 4 ? 3 : 1, 2);  // 4: 3x3 downsample
      m.down_bn = bn(4);
    }
    return m;
  };
  const ResidualBlock ok(members(-1));
  EXPECT_EQ(ok.in_channels(), 2);
  EXPECT_EQ(ok.internal_channels(), 3);
  EXPECT_EQ(ok.out_channels(), 4);
  EXPECT_EQ(ok.stride(), 2);
  for (int broken = 0; broken <= 4; ++broken) {
    EXPECT_THROW(ResidualBlock{members(broken)}, std::runtime_error)
        << "member " << broken;
  }
  // An identity skip must not carry a downsample.
  ResidualBlock::Members id;
  id.conv1 = conv(4, 4, 3, 1);
  id.bn1 = bn(4);
  id.conv2 = conv(4, 4, 3, 1);
  id.bn2 = bn(4);
  id.down_conv = conv(4, 4, 1, 1);
  id.down_bn = bn(4);
  EXPECT_THROW(ResidualBlock{std::move(id)}, std::runtime_error);
}

TEST(ResidualBlock, CloneKeepsEveryMember) {
  Rng rng(30);
  ResidualBlock block(3, 5, 2, rng, 4);
  block.bn1().gamma() = Tensor::randn(block.bn1().gamma().shape(), rng);
  std::vector<uint8_t> want, got;
  save_layer(want, block);
  save_layer(got, *block.clone());
  EXPECT_EQ(got, want);
}

TEST(ResidualBlock, PlainBlockMirrorsMainBranch) {
  Rng rng(27);
  ResidualBlock block(3, 3, 1, rng);
  Sequential plain = plain_main_branch(block);
  // With the skip removed the outputs differ, but the plain block must be a
  // valid network with the same interface.
  Tensor x = Tensor::randn(Shape{1, 3, 5, 5}, rng);
  EXPECT_EQ(plain.out_shape(x.shape()), block.out_shape(x.shape()));
  // The copied conv weights must be identical.
  auto* c1 = plain.find_nth<Conv2d>(0);
  ASSERT_NE(c1, nullptr);
  EXPECT_TRUE(allclose(c1->weight(), block.conv1().weight(), 0.0f, 0.0f));
}

// ---------------------------------------------------- ReLU-family bits ----
//
// Every ReLU loop runs nn::relu_forward / relu_backward. These tests hold
// each rewritten loop to a naive per-element oracle bit for bit, on inputs
// that include signed zeros, infinities, NaN and denormals. The shipped
// semantics: an element is kept only when x > 0, so NaN and -0.0 become
// +0.0 (as in the GEMM epilogue's Act::kReLU).

uint32_t bits(float v) { return std::bit_cast<uint32_t>(v); }

float relu_oracle(float v) {
  if (v > 0.0f) return v;
  return 0.0f;
}

/// Bitwise comparison: NaN matches NaN, -0.0 does not match +0.0.
void expect_bits(const Tensor& got, const std::vector<float>& want,
                 const std::string& what) {
  ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size())) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[static_cast<size_t>(i)]))
        << what << " at " << i << ": got " << got[i] << ", want "
        << want[static_cast<size_t>(i)];
  }
}

void expect_bits(const Tensor& got, const Tensor& want,
                 const std::string& what) {
  expect_bits(got, std::vector<float>(want.flat().begin(), want.flat().end()),
              what);
}

/// `shape` filled with zero-mean normals, the first entries replaced by the
/// special values (all of them, or only the finite ones).
Tensor with_specials(const Shape& shape, Rng& rng, bool finite_only) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float den = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();
  std::vector<float> specials = {0.0f,  -0.0f, den,   -den,  1e-40f,
                                 -1e-40f, tiny, -tiny, 1.0f, -1.0f};
  if (!finite_only) {
    for (float v : {inf, -inf, nan, -nan}) specials.push_back(v);
  }
  Tensor t = Tensor::randn(shape, rng);
  for (size_t i = 0; i < specials.size() && static_cast<int64_t>(i) < t.numel();
       ++i) {
    t[static_cast<int64_t>(i) * 7 % t.numel()] = specials[i];
  }
  return t;
}

/// v[i] -> relu_oracle(v[i] + skip[i]), and the mask v + skip > 0.
std::vector<float> add_relu_oracle(const Tensor& v, const Tensor& skip,
                                   std::vector<bool>* mask = nullptr) {
  std::vector<float> out(static_cast<size_t>(v.numel()));
  if (mask != nullptr) mask->assign(out.size(), false);
  for (int64_t i = 0; i < v.numel(); ++i) {
    const float u = skip.empty() ? v[i] : v[i] + skip[i];
    out[static_cast<size_t>(i)] = relu_oracle(u);
    if (mask != nullptr) (*mask)[static_cast<size_t>(i)] = u > 0.0f;
  }
  return out;
}

Tensor masked_oracle(const Tensor& g, const std::vector<bool>& mask) {
  Tensor out = g;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (!mask[static_cast<size_t>(i)]) out[i] = 0.0f;
  }
  return out;
}

TEST(ReLUBits, HelperMatchesOracleOnEveryPairOfSpecials) {
  Rng rng(100);
  const Tensor specials = with_specials(Shape{14}, rng, false);
  // Every (v, skip) pair of specials, so the residual sum itself is +-0.0,
  // +-inf, NaN (inf - inf among them) or a denormal.
  Tensor v(Shape{14 * 14}), skip(Shape{14 * 14}), g(Shape{14 * 14});
  for (int64_t i = 0; i < 14; ++i) {
    for (int64_t j = 0; j < 14; ++j) {
      v[i * 14 + j] = specials[i];
      skip[i * 14 + j] = specials[j];
      g[i * 14 + j] = specials[(i + j) % 14];
    }
  }
  std::vector<bool> keep;
  const std::vector<float> want = add_relu_oracle(v, skip, &keep);
  Tensor got = v;
  std::vector<uint8_t> mask(static_cast<size_t>(v.numel()));
  relu_forward(got.numel(), got.data(), skip.data(), mask.data());
  expect_bits(got, want, "relu_forward with skip");
  for (size_t i = 0; i < mask.size(); ++i) {
    ASSERT_EQ(mask[i] != 0, keep[i]) << "mask at " << i;
  }
  got = v;
  relu_forward(got.numel(), got.data(), nullptr, nullptr);
  expect_bits(got, add_relu_oracle(v, Tensor()), "relu_forward");
  const Tensor dg = masked_oracle(g, keep);
  got = g;
  relu_backward(got.numel(), got.data(), mask.data());
  expect_bits(got, dg, "relu_backward");
}

TEST(ReLUBits, ForwardAndBackwardMatchOracle) {
  Rng rng(101);
  const Tensor x = with_specials(Shape{3, 67}, rng, false);
  const Tensor g = with_specials(Shape{3, 67}, rng, false);
  std::vector<float> y(static_cast<size_t>(x.numel()));
  std::vector<float> dx(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    const int64_t j = static_cast<int64_t>(i);
    y[i] = relu_oracle(x[j]);
    dx[i] = x[j] > 0.0f ? g[j] : 0.0f;
  }
  ReLU relu;
  expect_bits(relu.forward(x, /*train=*/false), y, "ReLU eval");
  expect_bits(relu.forward(x, /*train=*/true), y, "ReLU train");
  expect_bits(relu.backward(g), dx, "ReLU backward");
}

TEST(ReLUBits, ResidualTrainForwardAndMasksMatchOracle) {
  Rng rng(103);
  ResidualBlock block(4, 4, 1, rng);
  // A zero gamma with a -0.0 beta makes a channel's BN output exactly +-0.0,
  // so both ReLUs see signed zeros; the identity skip adds the input's
  // zeros and denormals straight into the residual sum.
  block.bn1().gamma()[1] = 0.0f;
  block.bn1().beta()[1] = -0.0f;
  block.bn2().gamma()[0] = 0.0f;
  block.bn2().beta()[0] = -0.0f;
  std::unique_ptr<Layer> copy = block.clone();
  auto& ref = static_cast<ResidualBlock&>(*copy);
  const Tensor x = with_specials(Shape{3, 4, 6, 6}, rng, /*finite_only=*/true);
  const Tensor g = with_specials(Shape{3, 4, 6, 6}, rng, /*finite_only=*/true);
  ExecutionContext ctx;

  const Tensor got = block.forward(ctx, x, /*train=*/true);
  // The oracle replays the block's sublayer calls on an identical copy.
  std::vector<bool> mask1, mask_out;
  Tensor mid = ref.bn1().forward(ctx, ref.conv1().forward(ctx, x, true), true);
  const std::vector<float> mid_relu = add_relu_oracle(mid, Tensor(), &mask1);
  std::copy(mid_relu.begin(), mid_relu.end(), mid.data());
  const Tensor main =
      ref.bn2().forward(ctx, ref.conv2().forward(ctx, mid, true), true);
  expect_bits(got, add_relu_oracle(main, x, &mask_out), "residual forward");

  const Tensor got_dx = block.backward(ctx, g);
  const Tensor g_out = masked_oracle(g, mask_out);
  const Tensor gm = masked_oracle(
      ref.conv2().backward(ctx, ref.bn2().backward(ctx, g_out)), mask1);
  Tensor dx = ref.conv1().backward(ctx, ref.bn1().backward(ctx, gm));
  dx.add_(g_out);
  expect_bits(got_dx, dx, "residual backward");
  const auto got_params = block.params();
  const auto ref_params = ref.params();
  ASSERT_EQ(got_params.size(), ref_params.size());
  for (size_t i = 0; i < got_params.size(); ++i) {
    expect_bits(*got_params[i].grad, *ref_params[i].grad,
                "grad " + got_params[i].name);
  }
}

TEST(ReLUBits, ResidualFusedEvalMatchesOracle) {
  Rng rng(104);
  for (const bool downsample : {false, true}) {
    ResidualBlock block(4, downsample ? 8 : 4, downsample ? 2 : 1, rng);
    for (BatchNorm2d* bn : {&block.bn1(), &block.bn2()}) {
      for (int64_t c = 0; c < bn->channels(); ++c) {
        bn->running_mean()[c] = static_cast<float>(rng.normal(0.0, 0.5));
        bn->running_var()[c] = static_cast<float>(rng.uniform(0.5, 2.0));
      }
    }
    // Channel 0 of the main path is exactly +-0.0 (or NaN next to a
    // non-finite input), so the identity skip's specials reach the
    // residual sum as they are.
    block.bn2().gamma()[0] = 0.0f;
    block.bn2().beta()[0] = -0.0f;
    ExecutionContext ctx;
    block.prepare_inference(ctx);
    // With the identity skip, specials reach the residual sum unchanged.
    const Tensor x = with_specials(Shape{2, 4, 6, 6}, rng, downsample);
    const Tensor got = block.forward(ctx, x, /*train=*/false);

    const int64_t mid_c = block.internal_channels();
    const int64_t out_c = block.out_channels();
    std::vector<float> s1(mid_c), t1(mid_c), s2(out_c), t2(out_c);
    block.bn1().inference_scale_shift(s1.data(), t1.data());
    block.bn2().inference_scale_shift(s2.data(), t2.data());
    const Tensor mid = block.conv1().forward_fused(ctx, x, s1.data(),
                                                   t1.data(), simd::Act::kReLU);
    const Tensor main = block.conv2().forward_fused(
        ctx, mid, s2.data(), t2.data(), simd::Act::kNone);
    Tensor skip = x;
    if (downsample) {
      std::vector<float> sd(out_c), td(out_c);
      block.down_bn().inference_scale_shift(sd.data(), td.data());
      skip = block.down_conv().forward_fused(ctx, x, sd.data(), td.data(),
                                             simd::Act::kNone);
    }
    expect_bits(got, add_relu_oracle(main, skip),
                downsample ? "fused eval, downsample" : "fused eval");
  }
}

TEST(ReLUBits, CalibrationResidualMatchesOracle) {
  Rng rng(105);
  ResidualBlock block(4, 4, 1, rng);
  block.bn2().gamma()[0] = 0.0f;
  block.bn2().beta()[0] = -0.0f;
  std::unique_ptr<Layer> copy = block.clone();
  auto& ref = static_cast<ResidualBlock&>(*copy);
  const Tensor x = with_specials(Shape{2, 4, 6, 6}, rng, false);
  ExecutionContext ctx;
  const Tensor got = quantize_for_inference(block, ctx, x);

  Tensor mid = ref.bn1().forward(ctx, ref.conv1().forward(ctx, x, false),
                                 false);
  const std::vector<float> mid_relu = add_relu_oracle(mid, Tensor());
  std::copy(mid_relu.begin(), mid_relu.end(), mid.data());
  const Tensor main =
      ref.bn2().forward(ctx, ref.conv2().forward(ctx, mid, false), false);
  expect_bits(got, add_relu_oracle(main, x), "calibration residual");
}

// ------------------------------------------- Conv2d backward oracle ----

/// Direct-loop conv backward in double: dW and db are added onto the given
/// starting values. `scale_*` receives, per element, the sum of the
/// magnitudes of its terms, which bounds float rounding relative to it.
struct ConvGrads {
  std::vector<double> dx, dw, db, scale_dx, scale_dw, scale_db;
};

ConvGrads conv_backward_oracle(Conv2d& conv, const Tensor& x,
                               const Tensor& dy) {
  const int64_t n = x.dim(0), c_in = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int64_t o_c = conv.out_channels(), k = conv.options().kernel;
  const int64_t s = conv.options().stride, pad = conv.options().pad;
  const int64_t oh = dy.dim(2), ow = dy.dim(3);
  ConvGrads r;
  r.dx.assign(static_cast<size_t>(x.numel()), 0.0);
  r.scale_dx = r.dx;
  r.dw.assign(static_cast<size_t>(conv.weight().numel()), 0.0);
  r.scale_dw = r.dw;
  r.db.assign(static_cast<size_t>(o_c), 0.0);
  r.scale_db = r.db;
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t o = 0; o < o_c; ++o) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const double g = dy[((b * o_c + o) * oh + oy) * ow + ox];
          r.db[static_cast<size_t>(o)] += g;
          r.scale_db[static_cast<size_t>(o)] += std::fabs(g);
          for (int64_t c = 0; c < c_in; ++c) {
            for (int64_t ky = 0; ky < k; ++ky) {
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = oy * s - pad + ky, ix = ox * s - pad + kx;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const size_t xi =
                    static_cast<size_t>(((b * c_in + c) * h + iy) * w + ix);
                const size_t wi =
                    static_cast<size_t>(((o * c_in + c) * k + ky) * k + kx);
                const double xv = x[static_cast<int64_t>(xi)];
                const double wv = conv.weight()[static_cast<int64_t>(wi)];
                r.dw[wi] += g * xv;
                r.scale_dw[wi] += std::fabs(g * xv);
                r.dx[xi] += g * wv;
                r.scale_dx[xi] += std::fabs(g * wv);
              }
            }
          }
        }
      }
    }
  }
  return r;
}

/// |got - (base + want)| <= 1e-4 * (|base| + scale + 1e-3), element-wise.
void expect_grad_close(const Tensor& got, const Tensor& base,
                       const std::vector<double>& want,
                       const std::vector<double>& scale,
                       const std::string& what) {
  ASSERT_EQ(got.numel(), static_cast<int64_t>(want.size())) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    const size_t u = static_cast<size_t>(i);
    const double b = base.empty() ? 0.0 : base[i];
    const double tol = 1e-4 * (std::fabs(b) + scale[u] + 1e-3);
    ASSERT_NEAR(got[i], b + want[u], tol) << what << " at " << i;
  }
}

TEST(Conv2d, BackwardMatchesDirectOracleAtTileShapes) {
  struct Case {
    int64_t in_c, out_c, hw, kernel, stride, pad;
  };
  std::vector<Case> cases;
  for (const int64_t out_c : {8, 16, 24}) {
    cases.push_back({5, out_c, 9, 3, 1, 1});
    cases.push_back({5, out_c, 9, 3, 2, 1});
    cases.push_back({5, out_c, 9, 1, 1, 0});
  }
  // 3x3 stride 1 on the GEMM path on every tier: 72 input channels put the
  // depth past one k-slice (Conv2d::direct). At 27 x 27 output columns the
  // dW GEMM's depth crosses one k-slice too.
  cases.push_back({72, 8, 9, 3, 1, 1});
  cases.push_back({72, 4, 27, 3, 1, 1});
  cases.push_back({3, 24, 27, 3, 1, 1});
  // 3x3 stride 1 on the direct path where the tier has one: the pipeline's
  // planes and a ragged one, 1, 7, 8 and 64 channels each way (64 output
  // channels keep the GEMM, see Conv2d::direct).
  for (const int64_t hw : {8, 16, 32, 11}) {
    for (const auto& [in_c, out_c] :
         {std::pair<int64_t, int64_t>{1, 7}, {7, 8}, {8, 1}, {64, 8},
          {8, 64}, {1, 1}}) {
      cases.push_back({in_c, out_c, hw, 3, 1, 1});
    }
  }
  Rng rng(106);
  for (const Case& cs : cases) {
    const std::string what = std::to_string(cs.in_c) + "->" +
                             std::to_string(cs.out_c) + " " +
                             std::to_string(cs.hw) + "x" +
                             std::to_string(cs.hw) + " k" +
                             std::to_string(cs.kernel) + " s" +
                             std::to_string(cs.stride);
    Conv2d conv(cs.in_c, cs.out_c,
                {.kernel = cs.kernel, .stride = cs.stride, .pad = cs.pad,
                 .bias = true},
                rng);
    const Tensor x = Tensor::randn(Shape{3, cs.in_c, cs.hw, cs.hw}, rng);
    ExecutionContext ctx;
    const Tensor y = conv.forward(ctx, x, /*train=*/true);
    const Tensor dy = Tensor::randn(y.shape(), rng);
    // Pre-filled gradients: backward must add onto them.
    const Tensor dw0 = Tensor::randn(conv.weight().shape(), rng);
    const Tensor db0 = Tensor::randn(Shape{cs.out_c}, rng);
    auto params = conv.params();
    *params[0].grad = dw0;
    *params[1].grad = db0;
    const Tensor dx = conv.backward(ctx, dy);
    const ConvGrads want = conv_backward_oracle(conv, x, dy);
    expect_grad_close(dx, Tensor(), want.dx, want.scale_dx, what + " dX");
    expect_grad_close(*params[0].grad, dw0, want.dw, want.scale_dw,
                      what + " dW");
    expect_grad_close(*params[1].grad, db0, want.db, want.scale_db,
                      what + " db");
  }
}

// ----------------------------------------------------------- Sequential ----

TEST(Sequential, ComposesForward) {
  Rng rng(28);
  Sequential seq;
  seq.emplace<Dense>(3, 4, rng);
  seq.emplace<ReLU>();
  seq.emplace<Dense>(4, 2, rng);
  Tensor y = seq.forward(Tensor::randn(Shape{5, 3}, rng), false);
  EXPECT_EQ(y.shape(), Shape({5, 2}));
}

TEST(Sequential, GradientCheck) {
  Rng rng(29);
  Sequential seq;
  seq.emplace<Conv2d>(2, 3, Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                            .bias = false},
                      rng);
  seq.emplace<BatchNorm2d>(3);
  seq.emplace<ReLU>();
  seq.emplace<GlobalAvgPool2d>();
  seq.emplace<Flatten>();
  seq.emplace<Dense>(3, 2, rng);
  check_gradients(seq, Tensor::randn(Shape{2, 2, 6, 6}, rng), 291);
}

TEST(Sequential, CloneIsDeepCopy) {
  Rng rng(30);
  Sequential seq;
  seq.emplace<Dense>(2, 2, rng);
  auto copy = seq.clone();
  auto* orig = seq.find_nth<Dense>(0);
  auto* cloned = dynamic_cast<Sequential*>(copy.get())->find_nth<Dense>(0);
  ASSERT_NE(cloned, nullptr);
  EXPECT_TRUE(allclose(orig->weight(), cloned->weight(), 0.0f, 0.0f));
  orig->weight().fill(99.0f);
  EXPECT_FALSE(allclose(orig->weight(), cloned->weight()));
}

TEST(Sequential, ParamNamesArePrefixed) {
  Rng rng(31);
  Sequential seq;
  seq.emplace<Conv2d>(1, 1, Conv2d::Options{.kernel = 1, .pad = 0}, rng);
  seq.emplace<BatchNorm2d>(1);
  auto params = seq.params();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].name, "0.Conv2d.weight");
  EXPECT_EQ(params[1].name, "1.BatchNorm2d.gamma");
}

TEST(Sequential, MacsAccumulateWithShapePropagation) {
  Rng rng(32);
  Sequential seq;
  seq.emplace<Conv2d>(1, 2, Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                            .bias = false},
                      rng);
  seq.emplace<MaxPool2d>(2);
  seq.emplace<Conv2d>(2, 4, Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                            .bias = false},
                      rng);
  const Shape in{1, 1, 8, 8};
  const int64_t conv1 = 2 * 8 * 8 * 9;
  const int64_t pool = 2 * 4 * 4 * 4;
  const int64_t conv2 = 4 * 4 * 4 * 2 * 9;
  EXPECT_EQ(seq.macs(in), conv1 + pool + conv2);
}

// -------------------------------------------------------------- SGD/LR -----

TEST(SGD, PlainStepMovesAgainstGradient) {
  Rng rng(33);
  Tensor w = Tensor::from({1.0f});
  Tensor g = Tensor::from({0.5f});
  std::vector<ParamRef> params{{"w", &w, &g, false}};
  SGD sgd(0.1, /*momentum=*/0.0, /*weight_decay=*/0.0);
  sgd.step(params);
  EXPECT_NEAR(w[0], 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(SGD, MomentumAccumulates) {
  Tensor w = Tensor::from({0.0f});
  Tensor g = Tensor::from({1.0f});
  std::vector<ParamRef> params{{"w", &w, &g, false}};
  SGD sgd(0.1, 0.9, 0.0);
  sgd.step(params);  // v = -0.1, w = -0.1
  sgd.step(params);  // v = -0.19, w = -0.29
  EXPECT_NEAR(w[0], -0.29f, 1e-5f);
}

TEST(SGD, WeightDecayOnlyWhereFlagged) {
  Tensor w1 = Tensor::from({1.0f}), g1 = Tensor::from({0.0f});
  Tensor w2 = Tensor::from({1.0f}), g2 = Tensor::from({0.0f});
  std::vector<ParamRef> params{{"a", &w1, &g1, true}, {"b", &w2, &g2, false}};
  SGD sgd(0.1, 0.0, 0.5);
  sgd.step(params);
  EXPECT_NEAR(w1[0], 1.0f - 0.1f * 0.5f, 1e-6f);
  EXPECT_FLOAT_EQ(w2[0], 1.0f);
}

TEST(SGD, VelocityResetsWhenShapeChanges) {
  Tensor w = Tensor::from({0.0f, 0.0f});
  Tensor g = Tensor::from({1.0f, 1.0f});
  std::vector<ParamRef> params{{"w", &w, &g, false}};
  SGD sgd(0.1, 0.9, 0.0);
  sgd.step(params);
  // Simulate pruning: same tensor object, new shape.
  w = Tensor::from({0.0f});
  g = Tensor::from({1.0f});
  sgd.step(params);  // must not crash; velocity reinitialized
  EXPECT_NEAR(w[0], -0.1f, 1e-6f);
}

TEST(StepLR, DropsEveryStep) {
  StepLR lr(0.1, 100, 0.1);
  EXPECT_DOUBLE_EQ(lr.lr_at(0), 0.1);
  EXPECT_DOUBLE_EQ(lr.lr_at(99), 0.1);
  EXPECT_NEAR(lr.lr_at(100), 0.01, 1e-12);
  EXPECT_NEAR(lr.lr_at(250), 0.001, 1e-12);
}

// ---------------------------------------------------------- Serialization --

TEST(Serialize, RoundTripsPlainStack) {
  Rng rng(34);
  Sequential seq;
  seq.emplace<Conv2d>(3, 4, Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                            .bias = true},
                      rng);
  seq.emplace<BatchNorm2d>(4);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool2d>(2);
  seq.emplace<GlobalAvgPool2d>();
  seq.emplace<Flatten>();
  seq.emplace<Dense>(4, 10, rng);

  std::vector<uint8_t> bytes;
  save_model(bytes, seq);
  ByteReader r(bytes);
  auto loaded = load_model(r);

  Tensor x = Tensor::randn(Shape{2, 3, 8, 8}, rng);
  EXPECT_TRUE(allclose(seq.forward(x, false), loaded->forward(x, false),
                       0.0f, 0.0f));
}

TEST(Serialize, RoundTripsResidualBlock) {
  // A downsampling block, and one whose internal width exceeds its output.
  Rng rng(35);
  ResidualBlock down(3, 6, 2, rng);
  ResidualBlock wide(3, 3, 1, rng, 8);
  for (ResidualBlock* block : {&down, &wide}) {
    std::vector<uint8_t> bytes;
    save_model(bytes, *block);
    ByteReader r(bytes);
    auto loaded = load_model(r);
    Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
    EXPECT_TRUE(allclose(block->forward(x, false), loaded->forward(x, false),
                         0.0f, 0.0f));
  }
}

TEST(Serialize, RoundTripsPrunedResidualBlock) {
  Rng rng(36);
  ResidualBlock block(4, 4, 1, rng);
  block.prune_internal({1, 3});
  std::vector<uint8_t> bytes;
  save_model(bytes, block);
  ByteReader r(bytes);
  auto loaded = load_model(r);
  Tensor x = Tensor::randn(Shape{1, 4, 6, 6}, rng);
  EXPECT_TRUE(allclose(block.forward(x, false), loaded->forward(x, false),
                       0.0f, 0.0f));
}

TEST(Serialize, RejectsGarbage) {
  const std::string garbage = "not a model";
  const std::vector<uint8_t> bytes(garbage.begin(), garbage.end());
  ByteReader r(bytes);
  EXPECT_THROW(load_model(r), std::runtime_error);
}

// ------------------------------------------------------------------ init ---

TEST(Init, KaimingVarianceMatchesFanIn) {
  Rng rng(38);
  Tensor w(Shape{20000});
  kaiming_normal(w, 50, rng);
  double var = 0.0;
  for (int64_t i = 0; i < w.numel(); ++i) var += w[i] * w[i];
  var /= static_cast<double>(w.numel());
  EXPECT_NEAR(var, 2.0 / 50.0, 0.005);
}

}  // namespace
}  // namespace tbnet::nn
