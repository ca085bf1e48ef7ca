// Int8 quantization suite: microkernel tier parity against the scalar
// reference, driver-vs-naive integer GEMM bit identity, pool-size and
// batch invariance of the quantized layers, end-to-end engine accuracy
// (top-1 agreement + bounded logits error vs the f32 engine over the model
// zoo on synthetic CIFAR), the ~4x TA-image shrink, and format-v3
// serialization round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "data/synthetic_cifar.h"
#include "models/model_zoo.h"
#include "models/trainer.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/quant.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "tensor/execution_context.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

// ------------------------------------------------------------ helpers ----

/// Packs a row-major u8 B matrix [k, n] into one grouped panel per 16-column
/// strip, mirroring the producer layout contract (pack.h).
std::vector<uint8_t> pack_b_panels_u8(const std::vector<uint8_t>& b, int64_t k,
                                      int64_t n) {
  const int64_t kg = (std::max<int64_t>(k, 1) + simd::kKG - 1) / simd::kKG;
  const int64_t npan = (n + simd::kNR - 1) / simd::kNR;
  std::vector<uint8_t> panels(
      static_cast<size_t>(npan * kg * simd::kNR * simd::kKG), 0);
  for (int64_t jp = 0; jp < npan; ++jp) {
    uint8_t* panel = panels.data() + jp * kg * simd::kNR * simd::kKG;
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t j = 0; j < std::min<int64_t>(simd::kNR, n - jp * simd::kNR);
           ++j) {
        panel[(p / simd::kKG) * simd::kNR * simd::kKG + j * simd::kKG +
              p % simd::kKG] = b[static_cast<size_t>(p * n + jp * simd::kNR + j)];
      }
    }
  }
  return panels;
}

Tensor stack_images(const data::SyntheticCifar& ds, int64_t first,
                    int64_t count) {
  const Shape img = ds.image_shape();
  Tensor batch(Shape{count, img.dim(0), img.dim(1), img.dim(2)});
  const int64_t stride = img.numel();
  for (int64_t i = 0; i < count; ++i) {
    const data::Sample s = ds.get(first + i);
    std::memcpy(batch.data() + i * stride, s.image.data(),
                static_cast<size_t>(stride) * sizeof(float));
  }
  return batch;
}

models::ModelConfig zoo_cfg(models::Family family, int depth, uint64_t seed,
                            double width_mult = 0.125) {
  models::ModelConfig cfg;
  cfg.family = family;
  cfg.depth = depth;
  cfg.classes = 10;
  cfg.width_mult = width_mult;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------- quantizers ----

TEST(ActQuant, RangeAlwaysContainsZeroAndPostReluGetsZeroZp) {
  // Post-ReLU range: zero point 0, so padding and true zeros are exact.
  const nn::ActQuant relu = nn::act_quant_from_range(0.0f, 6.35f);
  EXPECT_EQ(relu.zero_point, 0);
  EXPECT_NEAR(relu.scale, 6.35f / 127.0f, 1e-6f);
  // Signed range: zp interior, both ends representable.
  const nn::ActQuant both = nn::act_quant_from_range(-1.0f, 1.0f);
  EXPECT_GT(both.zero_point, 0);
  EXPECT_LT(both.zero_point, 127);
  EXPECT_EQ(simd::quantize_u7(0.0f, 1.0f / both.scale, both.zero_point),
            static_cast<uint8_t>(both.zero_point));
  // All-negative range is extended to include 0 (padding must be exact).
  const nn::ActQuant neg = nn::act_quant_from_range(-2.0f, -1.0f);
  EXPECT_EQ(simd::quantize_u7(0.0f, 1.0f / neg.scale, neg.zero_point),
            static_cast<uint8_t>(neg.zero_point));
  // Degenerate range: identity-ish quantizer, never a zero/negative scale.
  const nn::ActQuant flat = nn::act_quant_from_range(0.0f, 0.0f);
  EXPECT_GT(flat.scale, 0.0f);
}

TEST(ActQuant, WeightQuantizationRoundTripsWithinHalfStep) {
  Rng rng(21);
  const int64_t out = 9, k = 37;
  Tensor w = Tensor::randn(Shape{out, k}, rng);
  const nn::QuantizedWeights qw =
      nn::quantize_weights(w.data(), out, k, nn::ActQuant{});
  ASSERT_EQ(qw.q.size(), static_cast<size_t>(out * k));
  for (int64_t o = 0; o < out; ++o) {
    int32_t sum = 0;
    for (int64_t i = 0; i < k; ++i) {
      const int8_t q = qw.q[static_cast<size_t>(o * k + i)];
      sum += q;
      EXPECT_GE(q, -127);
      EXPECT_LE(q, 127);
      EXPECT_NEAR(static_cast<float>(q) * qw.scale[static_cast<size_t>(o)],
                  w[o * k + i], 0.5f * qw.scale[static_cast<size_t>(o)] + 1e-7f);
    }
    EXPECT_EQ(sum, qw.qsum[static_cast<size_t>(o)]);
  }
}

// ------------------------------------------------------------- kernels ----

/// The dispatched int8 tier must match the scalar reference BIT-for-bit on
/// every tile shape, including ragged edges — this is the exactness contract
/// (u7 x s8 never saturates pmaddubsw) that makes the quantized path
/// deterministic across ISAs.
TEST(Int8Kernel, DispatchMatchesScalarReferenceBitwise) {
  Rng rng(31);
  for (const int64_t k : {1, 3, 4, 7, 64, 129}) {
    const int64_t kg = (k + simd::kKG - 1) / simd::kKG;
    std::vector<int8_t> a(static_cast<size_t>(kg * simd::kMR * simd::kKG), 0);
    std::vector<uint8_t> b(static_cast<size_t>(kg * simd::kNR * simd::kKG), 0);
    // Fill only the real k taps; padding stays zero as the pack contract
    // requires.
    for (int64_t p = 0; p < k; ++p) {
      for (int i = 0; i < simd::kMR; ++i) {
        a[static_cast<size_t>((p / 4) * simd::kMR * 4 + i * 4 + p % 4)] =
            static_cast<int8_t>(static_cast<int64_t>(rng.next_u64() % 255) -
                                127);
      }
      for (int j = 0; j < simd::kNR; ++j) {
        b[static_cast<size_t>((p / 4) * simd::kNR * 4 + j * 4 + p % 4)] =
            static_cast<uint8_t>(rng.next_u64() % 128);
      }
    }
    std::vector<float> scale(simd::kMR), shift(simd::kMR);
    for (int i = 0; i < simd::kMR; ++i) {
      scale[static_cast<size_t>(i)] = 0.001f + 0.01f * static_cast<float>(i);
      shift[static_cast<size_t>(i)] = 0.2f - 0.1f * static_cast<float>(i);
    }
    for (const auto act : {simd::Act::kNone, simd::Act::kReLU}) {
      const simd::QuantEpilogue ep{scale.data(), shift.data(), act};
      for (int mr = 1; mr <= simd::kMR; ++mr) {
        for (const int nr : {1, 5, simd::kNR}) {
          std::vector<float> want(static_cast<size_t>(simd::kMR * simd::kNR),
                                  -1e30f);
          std::vector<float> got = want;
          simd::micro_kernel_i8_reference()(kg, a.data(), b.data(),
                                            want.data(), simd::kNR, mr, nr, ep);
          simd::micro_kernel_i8()(kg, a.data(), b.data(), got.data(),
                                  simd::kNR, mr, nr, ep);
          for (size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "k=" << k << " mr=" << mr << " nr=" << nr << " idx=" << i;
          }
        }
      }
    }
  }
}

/// The dispatched bulk group quantizer must produce the same 64 panel bytes
/// as per-element quantize_u7 — producers switch between them at tile edges,
/// so a tier mismatch would silently split one panel between two rounding
/// behaviors.
TEST(Int8Kernel, GroupQuantizerMatchesScalarBitwise) {
  Rng rng(33);
  const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
  for (const int32_t zp : {0, 37, 127}) {
    for (const float scale : {0.05f, 0.8f}) {
      const float inv = 1.0f / scale;
      alignas(simd::kAlign) float rows[simd::kKG][simd::kNR];
      for (auto& row : rows) {
        for (float& v : row) {
          // Spread across both clamp edges and the interior, ties included.
          v = 8.0f * (static_cast<float>(rng.next_u64() % 2001) / 1000.0f -
                      1.0f);
        }
      }
      rows[0][0] = 0.0f;  // padding value: must land exactly on zp
      uint8_t got[simd::kKG * simd::kNR];
      qgroup(rows[0], rows[1], rows[2], rows[3], got, inv, zp);
      for (int j = 0; j < simd::kNR; ++j) {
        for (int t = 0; t < simd::kKG; ++t) {
          ASSERT_EQ(got[j * simd::kKG + t],
                    simd::quantize_u7(rows[t][j], inv, zp))
              << "zp=" << zp << " scale=" << scale << " j=" << j
              << " t=" << t;
        }
      }
    }
  }
}

/// Pack + driver + kernel against a from-scratch integer GEMM: the i32 dot
/// product must be exact and the epilogue a single fmaf per element.
TEST(Int8Kernel, DriverMatchesNaiveIntegerGemmBitwise) {
  Rng rng(32);
  ExecutionContext ctx;
  for (const auto& [m, n, k] :
       {std::tuple<int64_t, int64_t, int64_t>{1, 1, 3},
        {7, 18, 20},
        {24, 33, 130}}) {
    std::vector<int8_t> a(static_cast<size_t>(m * k));
    std::vector<uint8_t> b(static_cast<size_t>(k * n));
    for (auto& v : a) {
      v = static_cast<int8_t>(static_cast<int64_t>(rng.next_u64() % 255) - 127);
    }
    for (auto& v : b) v = static_cast<uint8_t>(rng.next_u64() % 128);
    std::vector<float> scale(static_cast<size_t>(m)), shift(scale);
    for (int64_t i = 0; i < m; ++i) {
      scale[static_cast<size_t>(i)] = 0.002f + 0.0001f * static_cast<float>(i);
      shift[static_cast<size_t>(i)] = 0.1f * static_cast<float>(i % 5 - 2);
    }
    std::vector<float> want(static_cast<size_t>(m * n));
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        int32_t acc = 0;
        for (int64_t p = 0; p < k; ++p) {
          acc += static_cast<int32_t>(a[static_cast<size_t>(i * k + p)]) *
                 static_cast<int32_t>(b[static_cast<size_t>(p * n + j)]);
        }
        want[static_cast<size_t>(i * n + j)] = simd::apply_act(
            std::fmaf(static_cast<float>(acc), scale[static_cast<size_t>(i)],
                      shift[static_cast<size_t>(i)]),
            simd::Act::kReLU);
      }
    }
    std::vector<int8_t> apack(
        static_cast<size_t>(packdetail::packed_a_i8_bytes(m, k)));
    packdetail::pack_a_i8(m, k, a.data(), k, apack.data());
    const std::vector<uint8_t> panels = pack_b_panels_u8(b, k, n);
    const int64_t panel_bytes = packdetail::panel_b_i8_bytes(k);
    std::vector<float> got(static_cast<size_t>(m * n), -1e30f);
    packdetail::run_packed_i8_producer(
        ctx, m, n, k, apack.data(),
        [&](int64_t kk, int64_t kc, int64_t j0, int nr, uint8_t* panel) {
          ASSERT_EQ(kk, 0);
          ASSERT_EQ(kc, k);
          ASSERT_GT(nr, 0);
          std::memcpy(panel,
                      panels.data() + (j0 / simd::kNR) * panel_bytes,
                      static_cast<size_t>(panel_bytes));
        },
        got.data(), n,
        simd::QuantEpilogue{scale.data(), shift.data(), simd::Act::kReLU});
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "m=" << m << " n=" << n << " idx=" << i;
    }
  }
}

// -------------------------------------------------------------- layers ----

/// Quantized conv: close to f32 (half-ulp-of-int8 error bars), and the bits
/// must not depend on the pool size, the batch that surrounded an image, or
/// whether the weight panels were pre-packed (prepare_inference) or packed
/// per call.
TEST(QuantizedLayers, ConvCloseToF32AndPoolAndBatchInvariant) {
  Rng rng(41);
  nn::Conv2d conv(8, 12, {.kernel = 3, .stride = 1, .pad = 1}, rng);
  const Tensor x = Tensor::randn(Shape{3, 8, 10, 9}, rng);
  ExecutionContext ctx;
  const Tensor want = conv.forward(ctx, x, false);

  nn::Conv2d q = conv;
  int count = 0;
  nn::quantize_for_inference(q, ctx, x, &count);
  EXPECT_EQ(count, 1);
  ASSERT_TRUE(q.quantized());
  const Tensor got = q.forward(ctx, x, false);
  ASSERT_EQ(got.shape(), want.shape());
  // Error bound: per-tap quantization error is half a step of each operand;
  // with k = 72 taps over randn data the worst observed error is ~0.10
  // (activation step here is ~4/127 ~ 0.03), so 0.12 gives headroom without
  // letting a scaling bug through.
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], 0.12f) << "at " << i;
  }

  // Pool-size bit invariance.
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    ExecutionContext tctx;
    tctx.set_pool(&pool);
    const Tensor t = q.forward(tctx, x, false);
    for (int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_EQ(t[i], got[i]) << "threads=" << threads << " at " << i;
    }
  }
  // Batch invariance: image 1 alone == image 1 in the batch of 3.
  Tensor one(Shape{1, 8, 10, 9});
  std::memcpy(one.data(), x.data() + one.numel(),
              static_cast<size_t>(one.numel()) * sizeof(float));
  const Tensor alone = q.forward(ctx, one, false);
  const int64_t plane = got.numel() / 3;
  for (int64_t i = 0; i < plane; ++i) {
    ASSERT_EQ(alone[i], got[plane + i]) << "at " << i;
  }
  // Pre-packed panels change nothing.
  nn::Conv2d prepped = q;
  ExecutionContext pctx;
  prepped.prepare_inference(pctx);
  const Tensor pre = prepped.forward(pctx, x, false);
  for (int64_t i = 0; i < pre.numel(); ++i) {
    ASSERT_EQ(pre[i], got[i]) << "at " << i;
  }
  // The quantized weights are model state: a clone keeps them.
  const std::unique_ptr<nn::Layer> copy = prepped.clone();
  ASSERT_TRUE(static_cast<const nn::Conv2d&>(*copy).quantized());
  const Tensor cloned = copy->forward(ctx, x, false);
  for (int64_t i = 0; i < cloned.numel(); ++i) {
    ASSERT_EQ(cloned[i], got[i]) << "at " << i;
  }
}

TEST(QuantizedLayers, DenseQuantizesWideHeadsOnlyAndStaysBatchInvariant) {
  Rng rng(42);
  ExecutionContext ctx;
  const Tensor x = Tensor::randn(Shape{5, 40}, rng);
  // Narrow head: left f32 by the eligibility rule.
  nn::Dense narrow(40, 10, rng);
  int count = -1;
  nn::quantize_for_inference(narrow, ctx, x, &count);
  EXPECT_EQ(count, 0);
  EXPECT_FALSE(narrow.quantized());
  // Wide head: quantized, close to f32, batch-invariant.
  nn::Dense wide(40, 32, rng);
  const Tensor want = wide.forward(ctx, x, false);
  nn::quantize_for_inference(wide, ctx, x, &count);
  EXPECT_EQ(count, 1);
  ASSERT_TRUE(wide.quantized());
  const Tensor got = wide.forward(ctx, x, false);
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], 0.12f) << "at " << i;
  }
  Tensor row(Shape{1, 40});
  std::memcpy(row.data(), x.data() + 2 * 40, 40 * sizeof(float));
  const Tensor alone = wide.forward(ctx, row, false);
  for (int64_t i = 0; i < 32; ++i) {
    ASSERT_EQ(alone[i], got[2 * 32 + i]) << "at " << i;
  }
}

// ------------------------------------------------------- serialization ----

TEST(QuantSerialization, FormatV3RoundTripsBitIdentically) {
  Rng rng(51);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      3, 18, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1}, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Conv2d>(
      18, 16,
      nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0, .bias = false},
      rng);
  ExecutionContext ctx;
  const Tensor calib = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  int count = 0;
  nn::quantize_for_inference(seq, ctx, calib, &count);
  EXPECT_EQ(count, 2);
  const int64_t f32_size = [&] {
    nn::Sequential plain;
    Rng r2(51);
    plain.emplace<nn::Conv2d>(
        3, 18, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1}, r2);
    plain.emplace<nn::ReLU>();
    plain.emplace<nn::Conv2d>(
        18, 16,
        nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0, .bias = false},
        r2);
    std::vector<uint8_t> bytes;
    nn::save_model(bytes, plain);
    return bytes.size();
  }();
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, seq);
  // The quantized stream ships int8 weight bytes: materially smaller.
  EXPECT_LT(bytes.size(), (f32_size * 2) / 5);

  ByteReader r(bytes);
  const auto loaded = nn::load_model(r);
  auto* lseq = dynamic_cast<nn::Sequential*>(loaded.get());
  ASSERT_NE(lseq, nullptr);
  auto* lconv = dynamic_cast<nn::Conv2d*>(&lseq->layer(0));
  ASSERT_NE(lconv, nullptr);
  ASSERT_TRUE(lconv->quantized());
  EXPECT_EQ(lconv->quant().q, dynamic_cast<nn::Conv2d&>(seq.layer(0)).quant().q);
  // The quantized forward consumes only (q, scale, act, qsum), all of which
  // round-trip exactly — the loaded model's bits must match.
  const Tensor want = seq.forward(ctx, calib, false);
  const Tensor got = loaded->forward(ctx, calib, false);
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at " << i;
  }
}

// ------------------------------------------------------------- engines ----

/// End-to-end acceptance across the model zoo: the quantized engine must
/// agree with a briefly trained f32 engine on >= 99% of top-1 predictions
/// over synthetic CIFAR, with bounded logit error. Training matters here:
/// random-init victims produce near-tie logits whose argmax flips under any
/// rounding, so agreement on them measures tie-breaking luck rather than
/// quantization quality.
TEST(QuantizedEngine, ZooTopOneAgreementAndLogitError) {
  struct Case {
    models::Family family;
    int depth;
  };
  const Case cases[] = {{models::Family::kVgg, 11},
                        {models::Family::kResNet, 20}};
  auto [train, test] = data::SyntheticCifar::make_split(10, 128, 132, 77);
  const Tensor calib = stack_images(test, 0, 16);
  const int64_t eval_n = 100;
  const Tensor eval = stack_images(test, 16, eval_n);
  for (const Case& c : cases) {
    const auto cfg = zoo_cfg(c.family, c.depth, 61);
    nn::Sequential victim = models::build_victim(cfg);
    models::TrainConfig vt;
    vt.epochs = 2;
    vt.batch_size = 32;
    vt.augment = false;
    models::train_classifier(victim, train, test, vt);
    core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
    tee::SecureWorld world;
    tee::TeeContext ctx(world);
    runtime::DeployedTBNet f32(tb, ctx, "quant-test-f32",
                               {.max_batch = eval_n, .calibration = {}});
    runtime::DeployedTBNet q(tb, ctx, "quant-test-int8",
                             {.max_batch = eval_n, .calibration = calib});
    const Tensor lf = f32.infer_batch(eval);
    const Tensor lq = q.infer_batch(eval);
    ASSERT_EQ(lf.shape(), lq.shape());
    float logit_mae = 0.0f, logit_amax = 0.0f;
    for (int64_t i = 0; i < lf.numel(); ++i) {
      logit_mae = std::max(logit_mae, std::fabs(lq[i] - lf[i]));
      logit_amax = std::max(logit_amax, std::fabs(lf[i]));
    }
    EXPECT_LT(logit_mae, 0.05f + 0.1f * logit_amax) << cfg.name();
    int64_t agree = 0;
    for (int64_t i = 0; i < eval_n; ++i) {
      const float* rf = lf.data() + i * cfg.classes;
      const float* rq = lq.data() + i * cfg.classes;
      const auto amax = [&](const float* r) {
        int64_t best = 0;
        for (int64_t k = 1; k < cfg.classes; ++k) {
          if (r[k] > r[best]) best = k;
        }
        return best;
      };
      agree += amax(rf) == amax(rq) ? 1 : 0;
    }
    EXPECT_GE(agree * 100, eval_n * 99)
        << cfg.name() << ": " << agree << "/" << eval_n << " top-1 agreement";
  }
}

/// TA-image shrink acceptance: the int8 deployment must serialize to <= 35%
/// of the f32 folded image on ResNet. Measured at a width where weights
/// dominate the stream: per-tensor metadata and biases are fixed costs that
/// scale linearly in channel count while quantizable conv weights scale
/// quadratically, so the 0.125-width accuracy models sit above the
/// asymptotic ~26% ratio this asserts on.
TEST(QuantizedEngine, TaImageShrinksOnWeightDominatedZooModels) {
  struct Case {
    models::Family family;
    int depth;
    double width;
  };
  const Case cases[] = {{models::Family::kResNet, 20, 0.5}};
  data::SyntheticCifar::Options dopt;
  dopt.samples = 8;
  dopt.seed = 77;
  const data::SyntheticCifar ds(dopt);
  const Tensor calib = stack_images(ds, 0, 8);
  for (const Case& c : cases) {
    const auto cfg = zoo_cfg(c.family, c.depth, 61, c.width);
    nn::Sequential victim = models::build_victim(cfg);
    core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
    tee::SecureWorld world;
    tee::TeeContext ctx(world);
    runtime::DeployedTBNet f32(tb, ctx, "quant-image-f32",
                               {.max_batch = 8, .calibration = {}});
    runtime::DeployedTBNet q(tb, ctx, "quant-image-int8",
                             {.max_batch = 8, .calibration = calib});
    EXPECT_LE(q.ta_image_bytes() * 100, f32.ta_image_bytes() * 35)
        << cfg.name() << ": quantized TA image " << q.ta_image_bytes()
        << " vs f32 " << f32.ta_image_bytes();
  }
}

/// The quantized engine's bits must not depend on the serving pool size —
/// the determinism contract extends through the whole deployed path (REE
/// stages + TA), in fast AND deterministic mode (where the scalar int8
/// reference consumes the same panels).
TEST(QuantizedEngine, DeployedBitsInvariantAcrossPoolSizes) {
  const auto cfg = zoo_cfg(models::Family::kVgg, 11, 62);
  nn::Sequential victim = models::build_victim(cfg);
  core::TwoBranchModel tb = models::build_two_branch(victim, cfg);
  data::SyntheticCifar::Options dopt;
  dopt.samples = 24;
  dopt.seed = 78;
  const data::SyntheticCifar ds(dopt);
  const Tensor calib = stack_images(ds, 0, 8);
  const Tensor batch = stack_images(ds, 8, 6);
  Tensor base;
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    tee::SecureWorld world;
    tee::TeeContext ctx(world);
    runtime::DeployedTBNet engine(tb, ctx, "quant-pool-test",
                                  {.max_batch = 8, .calibration = calib});
    // Both worlds' contexts shard on the global pool unless overridden; the
    // engine owns its contexts, so steer via the global-pool override.
    ThreadPool::set_global_for_testing(&pool);
    const Tensor logits = engine.infer_batch(batch);
    ThreadPool::set_global_for_testing(nullptr);
    if (base.empty()) {
      base = logits;
      continue;
    }
    ASSERT_EQ(logits.shape(), base.shape());
    for (int64_t i = 0; i < logits.numel(); ++i) {
      ASSERT_EQ(logits[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

}  // namespace
}  // namespace tbnet
