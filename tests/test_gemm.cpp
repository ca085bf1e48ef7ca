// Tests for the packed GEMM: edge shapes vs. the scalar reference kernels
// (bitwise on the scalar tier), the TBNET_DETERMINISTIC=1 tier pin, fused
// epilogues vs. separate passes, PackedGemm weight caching, batch invariance
// of the microkernel, deploy-time BN folding, and the prepared (fused)
// forward of Sequential / ResidualBlock.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/two_branch.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/fuse.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "runtime/server.h"
#include "tensor/gemm.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tbnet {
namespace {

/// Relative-tolerance check sized for fp32 accumulation-order differences.
void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-4f,
                  float atol = 1e-5f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

/// Packed-vs-reference parity. The scalar tier computes each element as the
/// reference's k-order chain, so wherever it runs (TBNET_DETERMINISTIC=1 pins
/// it on every host) the bits must match where the driver runs one chain per
/// element: alpha = 1, beta = 0 and k within one packdetail::kBlockK slice
/// (the driver adds one chain per slice). The SIMD tiers' FMA chains round
/// differently and are held to atol + rtol * |want|.
void expect_reference_parity(const Tensor& got, const Tensor& want,
                             bool one_chain, const std::string& what,
                             float rtol, float atol) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  const bool bitwise = simd::active_isa() == simd::Isa::kScalar && one_chain;
  for (int64_t i = 0; i < got.numel(); ++i) {
    if (bitwise) {
      ASSERT_EQ(got[i], want[i]) << what << " at " << i;
    } else {
      const float tol = atol + rtol * std::fabs(want[i]);
      ASSERT_NEAR(got[i], want[i], tol) << what << " at " << i;
    }
  }
}

// --------------------------------------------------------- dispatch --------

TEST(SimdDispatch, ScalarPinSelectsTheScalarTier) {
  const bool scalar = simd::active_isa() == simd::Isa::kScalar;
  EXPECT_EQ(std::string(simd::isa_name()) == "scalar", scalar);
  if (simd::fast_kernels_enabled()) return;  // the pin below is not in force
  // TBNET_DETERMINISTIC=1 selects the scalar table whole: both ladders
  // report it, and neither the wide tile nor the masked-row panel kernel
  // exists, so no layer has a second path to ask about.
  EXPECT_TRUE(scalar);
  EXPECT_STREQ(simd::isa_name(), "scalar");
  EXPECT_STREQ(simd::int8_isa_name(), "scalar");
  EXPECT_EQ(simd::micro_kernel_wide(), nullptr);
  EXPECT_EQ(simd::masked_rows_kernel(), nullptr);
  EXPECT_EQ(simd::micro_kernel_i8(), simd::micro_kernel_i8_reference());
  runtime::InferenceServer server([](const Tensor& batch) { return batch; });
  const runtime::ServingStats stats = server.stats();
  EXPECT_EQ(stats.isa, "scalar");
  EXPECT_EQ(stats.int8_isa, "scalar");
}

// ------------------------------------------------------- edge shapes -------

TEST(PackedGemm, EdgeShapesMatchReference) {
  ExecutionContext ctx;
  Rng rng(1);
  // m=1 (single image dense rows), k<4 (tiny depth), n not a multiple of the
  // vector width, and shapes straddling every tile-edge combination.
  const struct { int64_t m, n, k; } shapes[] = {
      {1, 1, 1},   {1, 5, 3},    {1, 16, 2},  {2, 17, 1},  {3, 33, 7},
      {6, 16, 4},  {7, 31, 13},  {12, 48, 9}, {5, 10, 64}, {13, 100, 129},
      {64, 33, 3}, {6, 16, 300},   // k crosses the reference 256 k-block
      {7, 48, 700}, {13, 33, 1500},  // k crosses the packed driver's k-block
  };
  const struct { float alpha, beta; } coeffs[] = {
      {1.0f, 0.0f}, {2.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    for (const auto& c : coeffs) {
      Tensor got = Tensor::randn(Shape{s.m, s.n}, rng);
      Tensor want = got;
      gemm_nn(ctx, s.m, s.n, s.k, c.alpha, a.data(), b.data(), c.beta,
              got.data());
      gemm_nn_reference(ctx, s.m, s.n, s.k, c.alpha, a.data(), b.data(),
                        c.beta, want.data());
      std::ostringstream what;
      what << "m=" << s.m << " n=" << s.n << " k=" << s.k
           << " alpha=" << c.alpha << " beta=" << c.beta;
      expect_reference_parity(
          got, want,
          c.alpha == 1.0f && c.beta == 0.0f && s.k <= packdetail::kBlockK,
          what.str(), /*rtol=*/1e-4f, /*atol=*/1e-4f);
    }
  }
}

TEST(PackedGemm, GemmNtMatchesReference) {
  ExecutionContext ctx;
  Rng rng(2);
  // n < kNR takes the per-element dot path, the rest the packed driver;
  // k = 1000 spans two driver k-slices.
  const struct { int64_t m, n, k; } shapes[] = {
      {1, 10, 48}, {4, 10, 64},  {9, 33, 17},  {32, 7, 300},
      {1, 40, 96}, {7, 16, 640}, {5, 21, 1000}};
  for (const auto& s : shapes) {
    const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
    const Tensor bt = Tensor::randn(Shape{s.n, s.k}, rng);  // B^T layout
    Tensor got(Shape{s.m, s.n}), want(Shape{s.m, s.n});
    gemm_nt(ctx, s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f, got.data());
    gemm_nt_reference(ctx, s.m, s.n, s.k, 1.0f, a.data(), bt.data(), 0.0f,
                      want.data());
    std::ostringstream what;
    what << "m=" << s.m << " n=" << s.n << " k=" << s.k;
    expect_reference_parity(got, want, s.k <= packdetail::kBlockK,
                            what.str(), /*rtol=*/1e-4f, /*atol=*/1e-5f);
  }
}

// The microkernel's accumulation order for a C row depends only on k — so a
// row computed inside a big batch is bit-identical to the same row computed
// alone. This is the property the batched serving parity tests lean on.
TEST(PackedGemm, RowsAreBatchInvariantBitForBit) {
  ExecutionContext ctx;
  Rng rng(4);
  const int64_t n = 21, k = 150;
  const Tensor a = Tensor::randn(Shape{13, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor full(Shape{13, n});
  gemm_nn(ctx, 13, n, k, 1.0f, a.data(), b.data(), 0.0f, full.data());
  for (int64_t i = 0; i < 13; ++i) {
    Tensor row(Shape{1, n});
    gemm_nn(ctx, 1, n, k, 1.0f, a.data() + i * k, b.data(), 0.0f, row.data());
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(row[j], full[i * n + j]) << "row " << i << " col " << j;
    }
  }
}

// --------------------------------------------------------- epilogues -------

TEST(PackedGemm, FusedEpilogueMatchesSeparatePasses) {
  ExecutionContext ctx;
  Rng rng(5);
  // k spans two packed k-blocks, so this also pins the epilogue firing only
  // on the final slice (beta_eff chaining across slices).
  const int64_t m = 11, n = 37, k = 700;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  const Tensor rs = Tensor::randn(Shape{m}, rng);
  const Tensor rh = Tensor::randn(Shape{m}, rng);
  const Tensor ch = Tensor::randn(Shape{n}, rng);

  GemmEpilogue ep;
  ep.row_scale = rs.data();
  ep.row_shift = rh.data();
  ep.col_shift = ch.data();
  ep.act = simd::Act::kReLU;
  Tensor fused(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, fused.data(), ep);

  Tensor want(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, want.data());
  apply_epilogue_reference(m, n, want.data(), n, ep);
  expect_close(fused, want);
}

TEST(PackedGemm, ReLUClampsInEpilogue) {
  ExecutionContext ctx;
  const int64_t m = 2, n = 20, k = 1;
  Tensor a = Tensor::ones(Shape{m, k});
  Tensor b(Shape{k, n});
  for (int64_t j = 0; j < n; ++j) b[j] = static_cast<float>(j) - 4.0f;
  GemmEpilogue ep;
  ep.act = simd::Act::kReLU;
  Tensor c(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data(), ep);
  for (int64_t j = 0; j < n; ++j) {
    const float want = std::max(0.0f, b[j]);
    EXPECT_EQ(c[j], want) << "col " << j;
    EXPECT_EQ(c[n + j], want) << "col " << j;
  }
}

TEST(PackedGemm, ReferenceEpilogueRejectsUnknownAct) {
  // An Act value the kernels do not implement must be rejected at the
  // boundary (simd::require_known_act), before any element is touched,
  // rather than applied as ReLU.
  const auto bogus = static_cast<simd::Act>(7);
  EXPECT_FALSE(simd::act_known(bogus));
  EXPECT_TRUE(simd::act_known(simd::Act::kNone));
  EXPECT_TRUE(simd::act_known(simd::Act::kReLU));
  float c[4] = {-1.0f, 2.0f, -3.0f, 4.0f};
  GemmEpilogue ep;
  ep.act = bogus;
  EXPECT_THROW(apply_epilogue_reference(2, 2, c, 2, ep),
               std::invalid_argument);
  EXPECT_EQ(c[0], -1.0f);
  EXPECT_EQ(c[2], -3.0f);
  ep.act = simd::Act::kReLU;
  EXPECT_NO_THROW(apply_epilogue_reference(2, 2, c, 2, ep));
  EXPECT_EQ(c[0], 0.0f);
  EXPECT_EQ(c[1], 2.0f);
  EXPECT_EQ(c[2], 0.0f);
  EXPECT_EQ(c[3], 4.0f);
}

// ------------------------------------------------------- PackedGemm --------

TEST(PackedGemm, PrepackedAMatchesUnpackedBitForBit) {
  ExecutionContext ctx;
  Rng rng(6);
  const int64_t m = 14, n = 50, k = 90;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor want(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, want.data());

  PackedGemm packed;
  packed.pack_a(m, k, a.data());
  ASSERT_FALSE(packed.empty());
  EXPECT_EQ(packed.rows(), m);
  Tensor got(Shape{m, n});
  packed.run(ctx, n, 1.0f, b.data(), 0.0f, got.data());
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at " << i;  // same kernel, same packing
  }
}

TEST(PackedGemm, PrepackedBFromArenaMatchesGemmNt) {
  ExecutionContext persistent;  // owns the pack, like a deployed engine
  ExecutionContext ctx;
  Rng rng(7);
  // n >= kNR so both sides take the tile path (below kNR the un-packed call
  // legitimately routes to the streaming reference kernel instead).
  const int64_t m = 5, n = 21, k = 33;
  const Tensor x = Tensor::randn(Shape{m, k}, rng);
  const Tensor w = Tensor::randn(Shape{n, k}, rng);  // dense weight [out, in]
  Tensor want(Shape{m, n});
  gemm_nt(ctx, m, n, k, 1.0f, x.data(), w.data(), 0.0f, want.data());

  PackedGemm packed;
  packed.pack_b_transposed(n, k, w.data(), &persistent.arena());
  EXPECT_EQ(packed.cols(), n);
  Tensor got(Shape{m, n});
  packed.run_with_a(ctx, m, 1.0f, x.data(), 0.0f, got.data());
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at " << i;
  }
}

TEST(PackedGemm, CopyYieldsEmptyCache) {
  Rng rng(8);
  const Tensor a = Tensor::randn(Shape{4, 8}, rng);
  PackedGemm packed;
  packed.pack_a(4, 8, a.data());
  PackedGemm copy = packed;  // layer clone semantics: must re-prepare
  EXPECT_TRUE(copy.empty());
  EXPECT_FALSE(packed.empty());
}

// -------------------------------------------------- fusion & folding -------

nn::Sequential conv_bn_relu_block(Rng& rng) {
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      3, 13, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                 .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(13);
  seq.emplace<nn::ReLU>();
  return seq;
}

/// Trains BN stats away from the identity so folding is actually exercised.
void randomize_bn(nn::BatchNorm2d& bn, Rng& rng) {
  for (int64_t c = 0; c < bn.channels(); ++c) {
    bn.gamma()[c] = 0.5f + 0.1f * static_cast<float>(c % 7);
    bn.beta()[c] = 0.3f - 0.05f * static_cast<float>(c % 5);
    bn.running_mean()[c] = 0.2f * static_cast<float>(c % 3) - 0.1f;
    bn.running_var()[c] = 0.5f + 0.25f * static_cast<float>(c % 4);
  }
  (void)rng;
}

TEST(Fusion, PreparedSequentialMatchesUnfusedEval) {
  Rng rng(9);
  nn::Sequential seq = conv_bn_relu_block(rng);
  randomize_bn(*seq.find_nth<nn::BatchNorm2d>(0), rng);
  nn::Sequential fused = seq;  // deep copy

  const Tensor x = Tensor::randn(Shape{2, 3, 10, 10}, rng);
  const Tensor want = seq.forward(x, false);
  ExecutionContext ctx;
  fused.prepare_inference(ctx);
  const Tensor got = fused.forward(ctx, x, false);
  expect_close(got, want);
  // ReLU really applied in the epilogue.
  for (int64_t i = 0; i < got.numel(); ++i) ASSERT_GE(got[i], 0.0f);
}

TEST(Fusion, FoldBatchnormRemovesBnAndPreservesOutputs) {
  Rng rng(10);
  nn::Sequential seq = conv_bn_relu_block(rng);
  randomize_bn(*seq.find_nth<nn::BatchNorm2d>(0), rng);
  const Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  const Tensor want = seq.forward(x, false);

  nn::Sequential folded = seq;
  EXPECT_EQ(nn::fold_batchnorm_inference(folded), 1);
  EXPECT_EQ(folded.size(), 2);  // BN gone
  auto* conv = folded.find_nth<nn::Conv2d>(0);
  ASSERT_NE(conv, nullptr);
  EXPECT_TRUE(conv->has_bias());  // absorbed the BN shift
  expect_close(folded.forward(x, false), want);

  // The folded model serializes as plain Conv2d(+bias) + ReLU.
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, folded);
  ByteReader r(bytes);
  auto loaded = nn::load_model(r);
  expect_close(loaded->forward(x, false), want);
}

TEST(Fusion, PreparedResidualBlockMatchesUnfusedEval) {
  Rng rng(12);
  nn::ResidualBlock block(4, 8, /*stride=*/2, rng);  // downsample path too
  randomize_bn(block.bn1(), rng);
  randomize_bn(block.bn2(), rng);
  randomize_bn(block.down_bn(), rng);
  const Tensor x = Tensor::randn(Shape{2, 4, 12, 12}, rng);
  const Tensor want = block.forward(x, false);

  auto fused = block.clone();
  ExecutionContext ctx;
  fused->prepare_inference(ctx);
  expect_close(fused->forward(ctx, x, false), want);
}

TEST(Fusion, DensePreparedMatchesAndFusesReLU) {
  Rng rng(13);
  nn::Sequential seq;
  seq.emplace<nn::Dense>(40, 21, rng);
  seq.emplace<nn::ReLU>();
  const Tensor x = Tensor::randn(Shape{3, 40}, rng);
  const Tensor want = seq.forward(x, false);

  nn::Sequential fused = seq;
  ExecutionContext ctx;
  fused.prepare_inference(ctx);
  expect_close(fused.forward(ctx, x, false), want);
}

TEST(Fusion, TwoBranchFoldPreservesSequentialStageOutputs) {
  Rng rng(14);
  nn::Sequential stage_e = conv_bn_relu_block(rng);
  nn::Sequential stage_s = conv_bn_relu_block(rng);
  randomize_bn(*stage_e.find_nth<nn::BatchNorm2d>(0), rng);
  randomize_bn(*stage_s.find_nth<nn::BatchNorm2d>(0), rng);
  core::TwoBranchModel tb;
  tb.add_stage(std::make_unique<nn::Sequential>(stage_e),
               std::make_unique<nn::Sequential>(stage_s));

  const Tensor x = Tensor::randn(Shape{1, 3, 8, 8}, rng);
  const Tensor want = tb.forward(x, false);
  core::TwoBranchModel folded = tb.clone();
  EXPECT_EQ(folded.fold_batchnorm(), 2);
  EXPECT_LT(folded.secure_param_bytes(), tb.secure_param_bytes());
  expect_close(folded.forward(x, false), want);
}

}  // namespace
}  // namespace tbnet
