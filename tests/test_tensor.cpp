// Unit tests for the tensor substrate: Shape, Rng, Tensor, GEMM, im2col, ops,
// CRC32C.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "tensor/crc32c.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

// ---------------------------------------------------------------- Shape ----

TEST(Shape, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
}

TEST(Shape, EmptyShapeHasNumelOne) {
  Shape s;
  EXPECT_EQ(s.ndim(), 0);
  EXPECT_EQ(s.numel(), 1);
}

TEST(Shape, Strides) {
  Shape s{2, 3, 4};
  const auto st = s.strides();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[0], 12);
  EXPECT_EQ(st[1], 4);
  EXPECT_EQ(st[2], 1);
}

TEST(Shape, DimOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s.dim(2), std::out_of_range);
  EXPECT_THROW(s.dim(-3), std::out_of_range);
}

TEST(Shape, EqualityAndString) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(Shape({1, 2}).str(), "[1, 2]");
}

// ------------------------------------------------------------------ Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(17);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 17);
  }
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to match
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(9);
  Rng child = parent.split();
  // The child stream must not replay the parent stream.
  Rng parent2(9);
  parent2.split();
  EXPECT_NE(child.next_u64(), parent2.next_u64() + 1);  // smoke
}

// --------------------------------------------------------------- Tensor ----

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 4});
  EXPECT_EQ(t.numel(), 12);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FactoryFull) {
  Tensor t = Tensor::full(Shape{2, 2}, 3.5f);
  EXPECT_EQ(t.sum(), 14.0f);
  EXPECT_EQ(t.min(), 3.5f);
  EXPECT_EQ(t.max(), 3.5f);
}

TEST(Tensor, MultiIndexAccess) {
  Tensor t(Shape{2, 3});
  t.at({1, 2}) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);
  EXPECT_THROW(t.at({2, 0}), std::out_of_range);
  EXPECT_THROW(t.at({0}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped(Shape{2, 3});
  EXPECT_EQ(r.at({1, 0}), 4.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), std::invalid_argument);
}

TEST(Tensor, AxpyAndScale) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({10, 20, 30});
  a.axpy_(0.5f, b);
  EXPECT_TRUE(allclose(a, Tensor::from({6, 12, 18})));
  a.scale_(2.0f);
  EXPECT_TRUE(allclose(a, Tensor::from({12, 24, 36})));
}

TEST(Tensor, AxpyShapeMismatchThrows) {
  Tensor a(Shape{3});
  Tensor b(Shape{4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({-1, 4, -2, 3});
  EXPECT_FLOAT_EQ(t.sum(), 4.0f);
  EXPECT_FLOAT_EQ(t.mean(), 1.0f);
  EXPECT_FLOAT_EQ(t.abs_sum(), 10.0f);
  EXPECT_EQ(t.argmax(), 1);
  EXPECT_FLOAT_EQ(t.min(), -2.0f);
  EXPECT_FLOAT_EQ(t.max(), 4.0f);
}

TEST(Tensor, RandnIsDeterministicGivenSeed) {
  Rng r1(42), r2(42);
  Tensor a = Tensor::randn(Shape{100}, r1);
  Tensor b = Tensor::randn(Shape{100}, r2);
  EXPECT_TRUE(allclose(a, b, 0.0f, 0.0f));
}

TEST(Tensor, AllcloseDetectsDifference) {
  Tensor a = Tensor::from({1.0f, 2.0f});
  Tensor b = Tensor::from({1.0f, 2.001f});
  EXPECT_FALSE(allclose(a, b, 1e-6f, 1e-6f));
  EXPECT_TRUE(allclose(a, b, 1e-2f, 1e-2f));
}

// ----------------------------------------------------------------- GEMM ----

void naive_gemm(int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0;
      for (int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaiveReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(1000 + m * 31 + n * 7 + k);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c(Shape{m, n}), ref(Shape{m, n});
  gemm_nn(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  EXPECT_TRUE(allclose(c, ref, 1e-4f, 1e-4f)) << "m=" << m << " n=" << n
                                              << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(33, 17, 65),
                      std::make_tuple(64, 128, 27), std::make_tuple(128, 64, 300),
                      std::make_tuple(1, 257, 513)));

TEST(Gemm, TransposedVariantsAgree) {
  const int64_t m = 13, n = 19, k = 23;
  Rng rng(4);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor ref(Shape{m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());

  // gemm_nt: pass B^T as [n, k].
  Tensor bt(Shape{n, k});
  for (int64_t i = 0; i < k; ++i)
    for (int64_t j = 0; j < n; ++j) bt[j * k + i] = b[i * n + j];
  Tensor c1(Shape{m, n});
  gemm_nt(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c1.data());
  EXPECT_TRUE(allclose(c1, ref, 1e-4f, 1e-4f));

  // gemm_tn: pass A^T as [k, m].
  Tensor at(Shape{k, m});
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = 0; j < k; ++j) at[j * m + i] = a[i * k + j];
  Tensor c2(Shape{m, n});
  gemm_tn(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c2.data());
  EXPECT_TRUE(allclose(c2, ref, 1e-4f, 1e-4f));
}

TEST(Gemm, AlphaBetaAccumulation) {
  const int64_t m = 4, n = 4, k = 4;
  Rng rng(5);
  Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c = Tensor::full(Shape{m, n}, 1.0f);
  Tensor ref(Shape{m, n});
  naive_gemm(m, n, k, a.data(), b.data(), ref.data());
  gemm_nn(m, n, k, 2.0f, a.data(), b.data(), 3.0f, c.data());
  for (int64_t i = 0; i < m * n; ++i) {
    EXPECT_NEAR(c[i], 2.0f * ref[i] + 3.0f, 1e-3f);
  }
}

// --------------------------------------------------------------- im2col ----

TEST(Im2col, IdentityKernelReproducesImage) {
  // 1x1 kernel, stride 1, no pad: cols == image.
  Conv2dGeom g;
  g.in_c = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel_h = g.kernel_w = 1;
  g.pad_h = g.pad_w = 0;
  Rng rng(8);
  Tensor img = Tensor::randn(Shape{2, 3, 3}, rng);
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, img.data(), cols.data());
  EXPECT_TRUE(allclose(cols.reshaped(img.shape()), img));
}

TEST(Im2col, KnownValues3x3) {
  // Single-channel 3x3 image, 3x3 kernel, pad 1: center column = image.
  Conv2dGeom g;
  g.in_c = 1;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  Tensor img = Tensor::from({1, 2, 3, 4, 5, 6, 7, 8, 9}).reshaped(Shape{1, 3, 3});
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, img.data(), cols.data());
  // Row 4 is the (kh=1, kw=1) center tap: equals the image itself.
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(cols[4 * 9 + i], img[i]);
  // Row 0 is the (kh=0, kw=0) tap: top-left neighbor, zero-padded first
  // row/col.
  EXPECT_EQ(cols[0 * 9 + 0], 0.0f);
  EXPECT_EQ(cols[0 * 9 + 4], 1.0f);  // output center sees pixel (0,0)
  EXPECT_EQ(cols[0 * 9 + 8], 5.0f);  // output (2,2) sees pixel (1,1)
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
  // property, which is exactly what conv backward relies on.
  Conv2dGeom g;
  g.in_c = 3;
  g.in_h = 7;
  g.in_w = 5;
  g.kernel_h = 3;
  g.kernel_w = 2;
  g.stride_h = 2;
  g.stride_w = 1;
  g.pad_h = 1;
  g.pad_w = 1;
  Rng rng(9);
  Tensor x = Tensor::randn(Shape{g.in_c, g.in_h, g.in_w}, rng);
  Tensor y = Tensor::randn(Shape{g.col_rows(), g.col_cols()}, rng);
  Tensor cols(Shape{g.col_rows(), g.col_cols()});
  im2col(g, x.data(), cols.data());
  Tensor xback(Shape{g.in_c, g.in_h, g.in_w});
  col2im(g, y.data(), xback.data());
  double lhs = 0, rhs = 0;
  for (int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * xback[i];
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

// ------------------------------------------------------------------ ops ----

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(10);
  Tensor logits = Tensor::randn(Shape{5, 7}, rng, 0.0f, 3.0f);
  Tensor p = softmax2d(logits);
  for (int64_t i = 0; i < 5; ++i) {
    double s = 0;
    for (int64_t j = 0; j < 7; ++j) {
      s += p[i * 7 + j];
      EXPECT_GE(p[i * 7 + j], 0.0f);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  Tensor logits = Tensor::from({1000.0f, 1001.0f}).reshaped(Shape{1, 2});
  Tensor p = softmax2d(logits);
  EXPECT_NEAR(p[0], 1.0f / (1.0f + std::exp(1.0f)), 1e-5f);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(Ops, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(11);
  Tensor logits = Tensor::randn(Shape{4, 6}, rng);
  Tensor lp = log_softmax2d(logits);
  Tensor p = softmax2d(logits);
  for (int64_t i = 0; i < lp.numel(); ++i) {
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
  }
}

TEST(Ops, AccuracyCountsCorrectRows) {
  Tensor logits = Tensor::from({0.9f, 0.1f,   // -> 0
                                0.2f, 0.8f,   // -> 1
                                0.6f, 0.4f})  // -> 0
                      .reshaped(Shape{3, 2});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 1, 0}), 2.0 / 3.0);
}

TEST(Ops, CrossEntropyKnownValue) {
  // Uniform logits over c classes -> loss = log(c).
  Tensor logits(Shape{2, 4});
  const double loss = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss, std::log(4.0), 1e-6);
}

TEST(Ops, CrossEntropyGradMatchesFiniteDifference) {
  Rng rng(12);
  Tensor logits = Tensor::randn(Shape{3, 5}, rng);
  const std::vector<int64_t> labels = {1, 4, 0};
  Tensor grad;
  softmax_cross_entropy(logits, labels, &grad);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double fd = (softmax_cross_entropy(lp, labels) -
                       softmax_cross_entropy(lm, labels)) /
                      (2.0 * eps);
    EXPECT_NEAR(grad[i], fd, 1e-3) << "at logit " << i;
  }
}

TEST(Ops, CrossEntropyRejectsBadLabels) {
  Tensor logits(Shape{1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), std::out_of_range);
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::invalid_argument);
}

TEST(Ops, ElementwiseHelpers) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({4, 5, 6});
  EXPECT_TRUE(allclose(add(a, b), Tensor::from({5, 7, 9})));
  EXPECT_TRUE(allclose(sub(b, a), Tensor::from({3, 3, 3})));
  EXPECT_TRUE(allclose(mul(a, b), Tensor::from({4, 10, 18})));
}

// ------------------------------------------------------------ threadpool ----

TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  std::function<void(int64_t, int64_t)> fn = [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  };
  pool.parallel_for(1000, fn);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  int count = 0;
  std::function<void(int64_t, int64_t)> fn = [&](int64_t b, int64_t e) {
    count += static_cast<int>(e - b);
  };
  pool.parallel_for(0, fn);
  EXPECT_EQ(count, 0);
  pool.parallel_for(1, fn);
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  std::atomic<int64_t> total{0};
  std::function<void(int64_t, int64_t)> fn = [&](int64_t b, int64_t e) {
    total += e - b;
  };
  for (int rep = 0; rep < 50; ++rep) pool.parallel_for(97, fn);
  EXPECT_EQ(total.load(), 97 * 50);
}

// --------------------------------------------------------------- CRC32C ----

/// CRC32C one bit at a time, straight from the reflected polynomial: the
/// reference the sliced loop must match.
uint32_t crc32c_bitwise(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

TEST(Crc32c, CheckValue) {
  // The CRC-32C check value (RFC 3720 / the CRC catalogue).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(Crc32c, SlicedLoopMatchesByteAtATimeReference) {
  // Every length 0-256 at every offset 0-7, so each count of leading and
  // trailing bytes around the 8-byte steps is covered, from a fresh start
  // and chained onto a previous result.
  Rng rng(31);
  std::vector<uint8_t> buf(7 + 256);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.uniform_int(256));
  const uint32_t chained = crc32c_bitwise(buf.data(), 13, 0);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len + offset <= buf.size() && len <= 256; ++len) {
      const uint8_t* p = buf.data() + offset;
      for (uint32_t seed : {0u, chained}) {
        ASSERT_EQ(crc32c(p, len, seed), crc32c_bitwise(p, len, seed))
            << "offset " << offset << ", length " << len << ", seed " << seed;
      }
    }
  }
}

TEST(Crc32c, ChainsAcrossASplit) {
  Rng rng(32);
  std::vector<uint8_t> buf(300);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.uniform_int(256));
  const uint32_t whole = crc32c(buf.data(), buf.size());
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    ASSERT_EQ(crc32c(buf.data() + cut, buf.size() - cut,
                     crc32c(buf.data(), cut)),
              whole)
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace tbnet
