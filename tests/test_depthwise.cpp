// Depthwise SIMD parity suite: the vectorized row kernel vs the scalar
// reference across geometries (stride 1/2, pad 0/1, odd widths narrower
// than the vector width, bias on/off, ReLU/ReLU6), pool-size and batch bit
// invariance, explicit-Act rejection, and the fused depthwise→pointwise
// producer path vs running the two layers separately (bitwise on the fast
// kernels, by the row kernel's segment-invariance contract).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/depthwise.h"
#include "nn/fuse.h"
#include "nn/sequential.h"
#include "tensor/execution_context.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-5f,
                  float atol = 1e-6f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at flat index " << i;
  }
}

struct DwCase {
  const char* name;
  int64_t channels, ih, iw, kernel, stride, pad;
  bool bias;
};

// Edge geometries: both strides, pad 0/1/2, widths narrower than one vector
// (ow < 8) and narrower than a panel (ow < 16), a 1x1 and a 5x5 kernel, and
// maps whose rows are not vector-width multiples.
const DwCase kDwCases[] = {
    {"k3_s1_p1_32x32", 8, 32, 32, 3, 1, 1, false},
    {"k3_s1_p1_bias", 8, 16, 16, 3, 1, 1, true},
    {"k3_s2_p1", 6, 17, 15, 3, 2, 1, false},
    {"k3_s2_p1_bias_even", 4, 16, 16, 3, 2, 1, true},
    {"k3_s1_p0", 5, 12, 11, 3, 1, 0, false},
    {"k3_s2_p0", 5, 13, 13, 3, 2, 0, false},
    {"k5_s1_p2", 3, 14, 14, 5, 1, 2, false},
    {"k5_s2_p2_bias", 3, 15, 15, 5, 2, 2, true},
    {"k1_s1_p0", 7, 9, 9, 1, 1, 0, false},
    {"narrow_ow_lt_vector", 4, 10, 6, 3, 1, 1, false},
    {"narrow_ow_lt_panel", 4, 12, 13, 3, 1, 1, false},
    {"single_pixel_out", 2, 3, 3, 3, 1, 0, false},
};

nn::DepthwiseConv2d make_dw(const DwCase& c, uint64_t seed = 5) {
  Rng rng(seed);
  nn::DepthwiseConv2d dw(c.channels,
                         {.kernel = c.kernel, .stride = c.stride,
                          .pad = c.pad, .bias = c.bias},
                         rng);
  if (c.bias) {
    for (int64_t ch = 0; ch < c.channels; ++ch) {
      dw.bias()[ch] = 0.3f * static_cast<float>(ch) - 0.4f;
    }
  }
  return dw;
}

// ------------------------------------------------ SIMD vs reference --------

TEST(DepthwiseSimd, ForwardMatchesReference) {
  ExecutionContext ctx;
  Rng rng(6);
  for (const DwCase& c : kDwCases) {
    nn::DepthwiseConv2d dw = make_dw(c);
    const Tensor x = Tensor::randn(Shape{2, c.channels, c.ih, c.iw}, rng);
    const Tensor got = dw.forward(ctx, x, false);
    const Tensor want = dw.forward_reference(
        ctx, x, nullptr, c.bias ? dw.bias().data() : nullptr,
        simd::Act::kNone);
    ASSERT_EQ(got.shape(), want.shape()) << c.name;
    for (int64_t i = 0; i < got.numel(); ++i) {
      const float tol = 1e-6f + 1e-5f * std::fabs(want[i]);
      ASSERT_NEAR(got[i], want[i], tol) << c.name << " at " << i;
    }
  }
}

TEST(DepthwiseSimd, FusedAffineAndActsMatchReference) {
  ExecutionContext ctx;
  Rng rng(7);
  for (const DwCase& c : kDwCases) {
    nn::DepthwiseConv2d dw = make_dw(c);
    const Tensor x = Tensor::randn(Shape{1, c.channels, c.ih, c.iw}, rng);
    std::vector<float> scale(static_cast<size_t>(c.channels));
    std::vector<float> shift(static_cast<size_t>(c.channels));
    for (int64_t ch = 0; ch < c.channels; ++ch) {
      scale[static_cast<size_t>(ch)] = 0.5f + 0.2f * static_cast<float>(ch % 3);
      shift[static_cast<size_t>(ch)] = 0.1f * static_cast<float>(ch) - 0.2f;
    }
    for (simd::Act act : {simd::Act::kNone, simd::Act::kReLU}) {
      const Tensor got =
          dw.forward_fused(ctx, x, scale.data(), shift.data(), act);
      const Tensor want =
          dw.forward_reference(ctx, x, scale.data(), shift.data(), act);
      ASSERT_EQ(got.shape(), want.shape()) << c.name;
      for (int64_t i = 0; i < got.numel(); ++i) {
        const float tol = 1e-6f + 1e-5f * std::fabs(want[i]);
        ASSERT_NEAR(got[i], want[i], tol)
            << c.name << " act=" << static_cast<int>(act) << " at " << i;
      }
    }
  }
}

TEST(DepthwiseSimd, DeterministicModePinsReferenceBits) {
  // The scalar row kernel (the tier TBNET_DETERMINISTIC=1 pins) keeps the
  // reference's tap order with plain multiply-add, and an exact scale 1 /
  // shift 0 affine, so forward is the reference arithmetic bit for bit. The
  // FMA tiers round each tap once and are held to tolerance.
  ExecutionContext ctx;
  Rng rng(8);
  for (const DwCase& c : kDwCases) {
    nn::DepthwiseConv2d dw = make_dw(c);
    const Tensor x = Tensor::randn(Shape{2, c.channels, c.ih, c.iw}, rng);
    const Tensor got = dw.forward(ctx, x, false);
    const Tensor want = dw.forward_reference(
        ctx, x, nullptr, c.bias ? dw.bias().data() : nullptr,
        simd::Act::kNone);
    if (simd::active_isa() == simd::Isa::kScalar) {
      expect_bitwise(got, want);
    } else {
      expect_close(got, want);
    }
  }
}

// ------------------------------------------------ bit invariance -----------

TEST(DepthwiseSimd, BitsIndependentOfPoolSize) {
  Rng rng(9);
  for (const DwCase& c : kDwCases) {
    nn::DepthwiseConv2d dw = make_dw(c);
    const Tensor x = Tensor::randn(Shape{3, c.channels, c.ih, c.iw}, rng);
    Tensor base;
    {
      ThreadPool pool(1);
      ExecutionContext ctx;
      ctx.set_pool(&pool);
      base = dw.forward(ctx, x, false);
    }
    for (int threads : {2, 4}) {
      ThreadPool pool(threads);
      ExecutionContext ctx;
      ctx.set_pool(&pool);
      const Tensor got = dw.forward(ctx, x, false);
      ASSERT_EQ(got.shape(), base.shape());
      for (int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got[i], base[i])
            << c.name << " threads=" << threads << " at " << i;
      }
    }
  }
}

TEST(DepthwiseSimd, BatchMatchesPerImageBitForBit) {
  ExecutionContext ctx;
  Rng rng(10);
  const DwCase c = kDwCases[0];
  nn::DepthwiseConv2d dw = make_dw(c);
  const Tensor batch = Tensor::randn(Shape{4, c.channels, c.ih, c.iw}, rng);
  const Tensor batched = dw.forward(ctx, batch, false);
  const int64_t img_floats = c.channels * c.ih * c.iw;
  for (int64_t i = 0; i < 4; ++i) {
    Tensor one(Shape{1, c.channels, c.ih, c.iw});
    for (int64_t t = 0; t < img_floats; ++t) {
      one[t] = batch[i * img_floats + t];
    }
    const Tensor got = dw.forward(ctx, one, false);
    const int64_t out_floats = got.numel();
    for (int64_t t = 0; t < out_floats; ++t) {
      ASSERT_EQ(got[t], batched[i * out_floats + t]) << "image " << i;
    }
  }
}

// ------------------------------------------------ act dispatch -------------

TEST(DepthwiseSimd, RejectsUnknownActValues) {
  ExecutionContext ctx;
  Rng rng(11);
  nn::DepthwiseConv2d dw(2, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  const Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);
  const auto bogus = static_cast<simd::Act>(7);
  EXPECT_FALSE(simd::act_known(bogus));
  EXPECT_THROW(dw.forward_fused(ctx, x, nullptr, nullptr, bogus),
               std::invalid_argument);
  EXPECT_THROW(dw.forward_reference(ctx, x, nullptr, nullptr, bogus),
               std::invalid_argument);
  EXPECT_NO_THROW(dw.forward_fused(ctx, x, nullptr, nullptr,
                                   simd::Act::kReLU));
}

// ------------------------------------------------ fused dw→pw --------------

struct DwPwCase {
  const char* name;
  int64_t channels, out_c, ih, iw, stride;
};

// Ragged spatial extents (oh*ow not a panel multiple), stride 2, out_c not a
// microkernel-row multiple, and a channel count crossing the packed driver's
// k-block (kBlockK = 640) so multi-k-block producer panels are exercised.
const DwPwCase kDwPwCases[] = {
    {"mobile_32x32", 16, 24, 32, 32, 1},
    {"mobile_s2", 16, 20, 17, 15, 2},
    {"ragged_small", 6, 5, 9, 7, 1},
    {"k_crosses_block", 648, 8, 6, 6, 1},
};

TEST(DepthwiseFusion, FusedDwPwMatchesUnfusedBitwise) {
  ExecutionContext ctx;
  Rng rng(12);
  for (const DwPwCase& c : kDwPwCases) {
    nn::DepthwiseConv2d dw(
        c.channels, {.kernel = 3, .stride = c.stride, .pad = 1}, rng);
    nn::Conv2d pw(c.channels, c.out_c,
                  {.kernel = 1, .stride = 1, .pad = 0, .bias = false}, rng);
    const Tensor x =
        Tensor::randn(Shape{2, c.channels, c.ih, c.iw}, rng);
    std::vector<float> dscale(static_cast<size_t>(c.channels));
    std::vector<float> dshift(static_cast<size_t>(c.channels));
    for (int64_t ch = 0; ch < c.channels; ++ch) {
      dscale[static_cast<size_t>(ch)] = 0.8f + 0.1f * static_cast<float>(ch % 4);
      dshift[static_cast<size_t>(ch)] = 0.05f * static_cast<float>(ch % 5);
    }
    std::vector<float> pshift(static_cast<size_t>(c.out_c));
    for (int64_t o = 0; o < c.out_c; ++o) {
      pshift[static_cast<size_t>(o)] = 0.02f * static_cast<float>(o) - 0.1f;
    }
    GemmEpilogue pep;
    pep.row_shift = pshift.data();
    pep.act = simd::Act::kReLU;

    const Tensor fused = nn::forward_depthwise_pointwise(
        ctx, x, dw, dscale.data(), dshift.data(), simd::Act::kReLU, pw, pep);

    // Unfused: materialize the depthwise output, then the pointwise conv.
    const Tensor mid = dw.forward_fused(ctx, x, dscale.data(), dshift.data(),
                                        simd::Act::kReLU);
    const Tensor want =
        pw.forward_fused(ctx, mid, nullptr, pshift.data(), simd::Act::kReLU);

    ASSERT_EQ(fused.shape(), want.shape()) << c.name;
    // Bitwise: the row kernel's chains are segment-invariant and the
    // pointwise GEMM sees the same panel values in the same k order either
    // way.
    for (int64_t i = 0; i < fused.numel(); ++i) {
      ASSERT_EQ(fused[i], want[i]) << c.name << " at " << i;
    }
  }
}

TEST(DepthwiseFusion, FusedDwPwBitsIndependentOfPoolSize) {
  Rng rng(13);
  nn::DepthwiseConv2d dw(12, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  nn::Conv2d pw(12, 10, {.kernel = 1, .stride = 1, .pad = 0, .bias = false},
                rng);
  const Tensor x = Tensor::randn(Shape{2, 12, 19, 17}, rng);
  Tensor base;
  {
    ThreadPool pool(1);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    base = nn::forward_depthwise_pointwise(ctx, x, dw, nullptr, nullptr,
                                           simd::Act::kNone, pw, {});
  }
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    const Tensor got = nn::forward_depthwise_pointwise(
        ctx, x, dw, nullptr, nullptr, simd::Act::kNone, pw, {});
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(DepthwiseFusion, FusedDwPwRejectsNonPointwiseShapes) {
  ExecutionContext ctx;
  Rng rng(14);
  nn::DepthwiseConv2d dw(4, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  nn::Conv2d not_pw(4, 4, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                    rng);
  const Tensor x = Tensor::randn(Shape{1, 4, 8, 8}, rng);
  EXPECT_THROW(nn::forward_depthwise_pointwise(ctx, x, dw, nullptr, nullptr,
                                               simd::Act::kNone, not_pw, {}),
               std::invalid_argument);
}

// A MobileNet-style separable stack: DW-BN-ReLU-PW-BN-ReLU. The prepared
// plan collapses all six layers into one producer-fed step; its output must
// match the layer-by-layer eval forward to fused-epilogue tolerance, and the
// plan must hold the intermediate-free path (arena stays panel-sized).
TEST(DepthwiseFusion, SequentialPlanFusesSeparableBlock) {
  Rng rng(15);
  nn::Sequential seq;
  seq.emplace<nn::DepthwiseConv2d>(
      16, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  seq.emplace<nn::BatchNorm2d>(16);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Conv2d>(
      16, 24, nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0,
                                  .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(24);
  seq.emplace<nn::ReLU>();
  // Non-trivial BN statistics on both sides.
  for (int bn_idx : {0, 1}) {
    auto* bn = seq.find_nth<nn::BatchNorm2d>(bn_idx);
    for (int64_t ch = 0; ch < bn->channels(); ++ch) {
      bn->gamma()[ch] = 0.6f + 0.05f * static_cast<float>(ch % 7);
      bn->beta()[ch] = 0.1f - 0.03f * static_cast<float>(ch % 5);
      bn->running_mean()[ch] = 0.02f * static_cast<float>(ch % 3);
      bn->running_var()[ch] = 0.5f + 0.1f * static_cast<float>(ch % 4);
    }
  }
  const Tensor x = Tensor::randn(Shape{2, 16, 20, 20}, rng);
  const Tensor want = seq.forward(x, false);  // layer-by-layer eval

  nn::Sequential prepared = seq;
  ExecutionContext ctx;
  prepared.prepare_inference(ctx);
  const Tensor got = prepared.forward(ctx, x, false);
  expect_close(got, want, 1e-4f, 1e-5f);

  // The fused step never materializes the depthwise map. The probe needs
  // an intermediate larger than both the arena's minimum block and the
  // producer's per-chunk panel slabs (whose count scales with the pool,
  // so it is charged via the driver's own accounting rather than by
  // pinning a 1-thread pool), or block-granularity rounding would mask a
  // materialization: a 64-channel block (the `channels > 32` fusion gate
  // arm) over a 40x40 map gives a 102400-float intermediate. The arena is
  // pre-sized with the slab accounting plus half the intermediate; a
  // fused forward fits in that and must not push capacity past the slack,
  // while materializing the map could not fit and would force a new
  // block beyond it.
  nn::Sequential sep;
  sep.emplace<nn::DepthwiseConv2d>(
      64, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  sep.emplace<nn::ReLU>();
  sep.emplace<nn::Conv2d>(
      64, 32, nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0,
                                  .bias = false},
      rng);
  ExecutionContext fresh;
  sep.prepare_inference(fresh);
  const int64_t mid_floats = 64 * 40 * 40;
  const int64_t slabs =
      packdetail::producer_slab_floats(fresh.pool(), 40 * 40, 64);
  {
    ArenaScope grow(fresh.arena());
    fresh.arena().alloc(slabs + mid_floats / 2);
  }
  const auto before = fresh.arena().capacity_floats();
  const Tensor xa = Tensor::randn(Shape{1, 64, 40, 40}, rng);
  sep.forward(fresh, xa, false);
  EXPECT_LT(fresh.arena().capacity_floats() - before, mid_floats / 2)
      << "fused step must not allocate the depthwise intermediate";
}

TEST(DepthwiseFusion, SizeGatePredicateMatchesMeasuredShapes) {
  // PR 4 measured the producer fusion at ~0.75x on k = 32 over a 32x32 map
  // and ~1.0x+ everywhere else (BENCH_kernels.json "depthwise_fused"): the
  // gate must reject exactly the shallow-AND-wide corner.
  EXPECT_FALSE(nn::fuse_dw_pw_profitable(32, 32 * 32));   // the measured loss
  EXPECT_FALSE(nn::fuse_dw_pw_profitable(16, 64 * 64));   // shallower + wider
  EXPECT_TRUE(nn::fuse_dw_pw_profitable(64, 32 * 32));    // deep enough
  EXPECT_TRUE(nn::fuse_dw_pw_profitable(32, 16 * 16));    // narrow enough
  EXPECT_TRUE(nn::fuse_dw_pw_profitable(64, 16 * 16));    // dwpw_64to128 case
  EXPECT_TRUE(nn::fuse_dw_pw_profitable(128, 128 * 128)); // deep and wide
}

TEST(DepthwiseFusion, PlanGatesShallowWideMapsPerInputShape) {
  // One prepared separable stack, driven at two input sizes through the
  // same plan: the 32x32 map (k = 32, cols = 1024) takes the gated unfused
  // pair, the 8x8 map stays on the producer fusion — and both must match
  // the layer-by-layer eval forward. The gate is dispatch-time because the
  // plan cannot know spatial dims at prepare_inference.
  Rng rng(17);
  nn::Sequential seq;
  seq.emplace<nn::DepthwiseConv2d>(
      32, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  seq.emplace<nn::BatchNorm2d>(32);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Conv2d>(
      32, 48, nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0,
                                  .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(48);
  seq.emplace<nn::ReLU>();
  for (int bn_idx : {0, 1}) {
    auto* bn = seq.find_nth<nn::BatchNorm2d>(bn_idx);
    for (int64_t ch = 0; ch < bn->channels(); ++ch) {
      bn->gamma()[ch] = 0.7f + 0.04f * static_cast<float>(ch % 5);
      bn->beta()[ch] = 0.05f - 0.02f * static_cast<float>(ch % 3);
      bn->running_mean()[ch] = 0.01f * static_cast<float>(ch % 4);
      bn->running_var()[ch] = 0.6f + 0.08f * static_cast<float>(ch % 6);
    }
  }
  nn::Sequential prepared = seq;
  ExecutionContext ctx;
  prepared.prepare_inference(ctx);
  for (const int64_t hw : {32, 8}) {
    const Tensor x = Tensor::randn(Shape{2, 32, hw, hw}, rng);
    const Tensor want = seq.forward(x, false);  // layer-by-layer eval
    const Tensor got = prepared.forward(ctx, x, false);
    expect_close(got, want, 1e-4f, 1e-5f);
  }
}

TEST(DepthwiseFusion, GatedAndFusedPathsAreBitIdentical) {
  // The gate is a pure latency knob: on the very shape it triggers for, the
  // producer fusion and the back-to-back pair must produce identical bits
  // (this is what makes the dispatch-time switch invisible to parity).
  Rng rng(18);
  nn::DepthwiseConv2d dw(
      32, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  nn::Conv2d pw(32, 48, nn::Conv2d::Options{.kernel = 1, .stride = 1,
                                            .pad = 0, .bias = false},
                rng);
  ExecutionContext ctx;
  pw.prepare_inference(ctx);
  const Tensor x = Tensor::randn(Shape{1, 32, 32, 32}, rng);
  ASSERT_FALSE(nn::fuse_dw_pw_profitable(32, 32 * 32));
  GemmEpilogue ep;
  ep.act = simd::Act::kReLU;
  const Tensor fused = nn::forward_depthwise_pointwise(
      ctx, x, dw, nullptr, nullptr, simd::Act::kReLU, pw, ep);
  const Tensor mid =
      dw.forward_fused(ctx, x, nullptr, nullptr, simd::Act::kReLU);
  const Tensor unfused =
      pw.forward_fused(ctx, mid, nullptr, nullptr, simd::Act::kReLU);
  ASSERT_EQ(fused.shape(), unfused.shape());
  for (int64_t i = 0; i < fused.numel(); ++i) {
    ASSERT_EQ(fused[i], unfused[i]) << "at " << i;
  }
}

TEST(DepthwiseFusion, PreparedSeparableBlockIsFrozen) {
  Rng rng(16);
  nn::Sequential seq;
  seq.emplace<nn::DepthwiseConv2d>(
      8, nn::DepthwiseConv2d::Options{.kernel = 3, .stride = 1, .pad = 1},
      rng);
  seq.emplace<nn::BatchNorm2d>(8);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Conv2d>(
      8, 6, nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0,
                                .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(6);
  seq.emplace<nn::ReLU>();
  ExecutionContext ctx;
  seq.prepare_inference(ctx);
  const Tensor x = Tensor::randn(Shape{1, 8, 10, 10}, rng);
  const Tensor before = seq.forward(ctx, x, false);
  // Both BNs' composed affines were hoisted to prepare time; editing them
  // afterwards must not change the fused output (prepared models freeze).
  seq.find_nth<nn::BatchNorm2d>(0)->gamma()[0] = 55.0f;
  seq.find_nth<nn::BatchNorm2d>(1)->gamma()[0] = -9.0f;
  expect_bitwise(seq.forward(ctx, x, false), before);
}

}  // namespace
}  // namespace tbnet
