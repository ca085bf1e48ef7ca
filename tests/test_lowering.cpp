// Tests for the zero-materialization conv lowering path and the
// multi-threaded packed GEMM driver: fused im2col→panel producer vs the
// materialized column matrix (bit parity across edge geometries), a sweep of
// every panel-builder branch (f32 and quantized) and of the row-wise
// im2col/col2im against naive per-element oracles, conv geometry
// validation, the direct 1x1 in-place path, arena high-water accounting (no
// column buffer on the packed path, none on the direct path), pool-size
// determinism, the direct 3x3 path's bit parity with the packed GEMM on
// every x86 tier the host supports, the packed gemm_tn variant, and the
// prepare-time BN composition.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "tensor/threadpool.h"

namespace tbnet {
namespace {

void expect_close(const Tensor& got, const Tensor& want, float rtol = 1e-4f,
                  float atol = 1e-5f) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float tol = atol + rtol * std::fabs(want[i]);
    ASSERT_NEAR(got[i], want[i], tol) << "at flat index " << i;
  }
}

struct ConvCase {
  const char* name;
  int64_t in_c, out_c, ih, iw, kernel, stride, pad;
};

// Edge geometries: padding, stride 2, 1x1 (direct and strided), a kernel
// wider than the pad, ragged oh*ow (not a multiple of the vector width),
// k < kBlockK and k crossing the packed driver's k-block (in_c*9 > 640).
const ConvCase kConvCases[] = {
    {"stem_3x3_pad1", 3, 16, 32, 32, 3, 1, 1},
    {"ragged_3x3_pad1", 8, 6, 11, 9, 3, 1, 1},
    {"ragged_3x3_stride2", 8, 6, 11, 9, 3, 2, 1},
    {"k5_pad2", 4, 5, 7, 7, 5, 1, 2},
    {"pw_1x1_direct", 16, 8, 8, 8, 1, 1, 0},
    {"pw_1x1_stride2", 16, 8, 9, 9, 1, 2, 0},
    {"deep_k_crosses_block", 80, 4, 8, 8, 3, 1, 1},
    {"no_pad_3x3", 2, 3, 6, 6, 3, 1, 0},
};

/// The materialized packed path the fused lowering replaced: full im2col
/// into a column buffer, consumed in place by the packed driver. Identical
/// values in identical accumulation order — the fused path must match it
/// bit for bit.
Tensor conv_materialized_packed(const ExecutionContext& ctx,
                                const nn::Conv2d& conv, const Conv2dGeom& g,
                                const Tensor& x,
                                const GemmEpilogue& ep = {}) {
  const int64_t rows = g.col_rows(), cols = g.col_cols();
  const int64_t out_c = conv.out_channels();
  std::vector<float> colbuf(static_cast<size_t>(rows * cols));
  std::vector<float> apack(
      static_cast<size_t>(packdetail::packed_a_floats(out_c, rows)));
  packdetail::pack_a_rowmajor(out_c, rows, conv.weight().data(), rows,
                              apack.data());
  const int64_t n = x.dim(0);
  Tensor out(Shape{n, out_c, g.out_h(), g.out_w()});
  const int64_t in_stride = g.in_c * g.in_h * g.in_w;
  for (int64_t i = 0; i < n; ++i) {
    im2col(g, x.data() + i * in_stride, colbuf.data());
    packdetail::run_packed_b_rowmajor(ctx.pool(), out_c, cols, rows, 1.0f,
                                      apack.data(), colbuf.data(), cols, 0.0f,
                                      out.data() + i * out_c * cols, cols, ep);
  }
  return out;
}

Conv2dGeom geom_of(const ConvCase& c) {
  Conv2dGeom g;
  g.in_c = c.in_c;
  g.in_h = c.ih;
  g.in_w = c.iw;
  g.kernel_h = g.kernel_w = c.kernel;
  g.stride_h = g.stride_w = c.stride;
  g.pad_h = g.pad_w = c.pad;
  return g;
}

// ------------------------------------------------ fused lowering parity ----

TEST(FusedLowering, PanelProducerMatchesMaterializedIm2col) {
  // Pure data check, independent of the kernel mode: every panel the fused
  // producer writes must hold exactly the bytes the materialized column
  // matrix holds at the same coordinates.
  Rng rng(21);
  for (const ConvCase& c : kConvCases) {
    const Conv2dGeom g = geom_of(c);
    const Tensor img = Tensor::randn(Shape{c.in_c, c.ih, c.iw}, rng);
    const int64_t rows = g.col_rows(), cols = g.col_cols();
    std::vector<float> colbuf(static_cast<size_t>(rows * cols));
    im2col(g, img.data(), colbuf.data());
    const int64_t stride = simd::kNR;
    std::vector<float> panel(static_cast<size_t>(stride));
    for (int64_t kk : {int64_t{0}, rows / 2, rows - 1}) {
      for (int64_t j0 = 0; j0 < cols; j0 += stride) {
        const int nr = static_cast<int>(std::min<int64_t>(stride, cols - j0));
        const int64_t kc = std::min<int64_t>(rows - kk, 3);
        panel.assign(static_cast<size_t>(kc * stride), -7.0f);
        im2col_pack_panel(g, img.data(), kk, kc, j0, nr, panel.data());
        for (int64_t p = 0; p < kc; ++p) {
          for (int64_t j = 0; j < stride; ++j) {
            const float want =
                j < nr ? colbuf[static_cast<size_t>((kk + p) * cols + j0 + j)]
                       : 0.0f;
            ASSERT_EQ(panel[static_cast<size_t>(p * stride + j)], want)
                << c.name << " kk=" << kk << " j0=" << j0 << " p=" << p
                << " j=" << j;
          }
        }
      }
    }
  }
}

// ------------------------------------------------ lowering sweep ----------
//
// Every branch of the panel builders, compared bitwise against a naive
// per-element oracle: output widths that put a panel inside one output row
// or across up to 16 of them; pads 0-2 (including rows and columns that are
// all padding); kernels 1, 3, 5 and one wider than a masked-row plan holds;
// stride-1 columns (the masked path) under row strides 1 and 2, and strided
// columns (the clamped copy); depths past 256 so slices cross channels;
// ragged final panels. Outputs are allocated exactly, so the ASan build sees
// any store past either end. Each image is read twice, once flush against a
// PROT_NONE guard page at each end, so any active lane that reads past
// either end of it faults under every compiler and sanitizer: ASan does not
// instrument the masked loads the row kernels read images through.

struct SweepGeom {
  Conv2dGeom g;
  std::string name;
};

std::vector<SweepGeom> lowering_sweep() {
  std::vector<SweepGeom> out;
  auto add = [&out](int64_t ow, int64_t oh, int64_t kernel, int64_t pad,
                    int64_t stride_h, int64_t stride_w) {
    Conv2dGeom g;
    g.kernel_h = g.kernel_w = kernel;
    g.pad_h = g.pad_w = pad;
    g.stride_h = stride_h;
    g.stride_w = stride_w;
    g.in_w = (ow - 1) * stride_w + kernel - 2 * pad;
    g.in_h = (oh - 1) * stride_h + kernel - 2 * pad;
    if (g.in_w < 1 || g.in_h < 1) return;
    g.in_c = 256 / (kernel * kernel) + 1;  // depth > 256
    out.push_back({g, "ow" + std::to_string(ow) + "_oh" + std::to_string(oh) +
                          "_k" + std::to_string(kernel) + "_p" +
                          std::to_string(pad) + "_s" +
                          std::to_string(stride_h) + "x" +
                          std::to_string(stride_w)});
  };
  const int64_t strides[][2] = {{1, 1}, {2, 2}, {2, 1}, {1, 2}};
  for (int64_t ow : {1, 7, 8, 12, 16, 17, 33}) {
    const int64_t oh = 3 + 34 / ow;  // > 2 panels; ragged unless 16 | ow
    for (int64_t pad = 0; pad <= 2; ++pad) {
      for (int64_t kernel : {1, 3, 5}) {
        for (const auto& st : strides) add(ow, oh, kernel, pad, st[0], st[1]);
      }
    }
  }
  // Wider than simd::MaskedPanelPlan::kMaxKernelW: the clamped copy serves
  // stride-1 columns too.
  add(5, 4, simd::MaskedPanelPlan::kMaxKernelW + 1, 8, 1, 1);
  return out;
}

std::vector<float> random_image(const Conv2dGeom& g, Rng& rng) {
  std::vector<float> img(static_cast<size_t>(g.in_c * g.in_h * g.in_w));
  for (float& v : img) v = static_cast<float>(rng.normal());
  return img;
}

/// A read-only copy of a non-empty float buffer between two PROT_NONE
/// guard pages, flush against the low one (kLow) or the high one (kHigh).
class GuardedImage {
 public:
  enum Flush { kLow, kHigh };

  GuardedImage(const std::vector<float>& src, Flush flush) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    const size_t bytes = src.size() * sizeof(float);
    const size_t body = (bytes + page - 1) / page * page;
    map_bytes_ = body + 2 * page;
    void* map = mmap(nullptr, map_bytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(map);
    char* lo = base_ + page;
    char* at = flush == kLow ? lo : lo + body - bytes;
    if (mprotect(lo, body, PROT_READ | PROT_WRITE) != 0) {
      munmap(base_, map_bytes_);
      throw std::runtime_error("mprotect failed");
    }
    std::memcpy(at, src.data(), bytes);
    mprotect(lo, body, PROT_READ);
    data_ = reinterpret_cast<const float*>(at);
  }
  ~GuardedImage() { munmap(base_, map_bytes_); }
  GuardedImage(const GuardedImage&) = delete;
  GuardedImage& operator=(const GuardedImage&) = delete;

  const float* data() const { return data_; }

 private:
  char* base_ = nullptr;
  size_t map_bytes_ = 0;
  const float* data_ = nullptr;
};

constexpr GuardedImage::Flush kFlushes[] = {GuardedImage::kLow,
                                            GuardedImage::kHigh};

/// Naive per-element im2col: the definition every lowering must reproduce.
std::vector<float> im2col_oracle(const Conv2dGeom& g,
                                 const std::vector<float>& img) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<float> cols(static_cast<size_t>(g.col_rows() * oh * ow));
  for (int64_t row = 0; row < g.col_rows(); ++row) {
    const int64_t kw = row % g.kernel_w;
    const int64_t kh = (row / g.kernel_w) % g.kernel_h;
    const int64_t c = row / (g.kernel_w * g.kernel_h);
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const int64_t iy = oy * g.stride_h - g.pad_h + kh;
        const int64_t ix = ox * g.stride_w - g.pad_w + kw;
        const bool in = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
        cols[static_cast<size_t>((row * oh + oy) * ow + ox)] =
            in ? img[static_cast<size_t>((c * g.in_h + iy) * g.in_w + ix)]
               : 0.0f;
      }
    }
  }
  return cols;
}

/// Naive per-element col2im, accumulating in (row, oy, ox) order.
std::vector<float> col2im_oracle(const Conv2dGeom& g,
                                 const std::vector<float>& cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  std::vector<float> img(static_cast<size_t>(g.in_c * g.in_h * g.in_w));
  for (int64_t row = 0; row < g.col_rows(); ++row) {
    const int64_t kw = row % g.kernel_w;
    const int64_t kh = (row / g.kernel_w) % g.kernel_h;
    const int64_t c = row / (g.kernel_w * g.kernel_h);
    for (int64_t oy = 0; oy < oh; ++oy) {
      for (int64_t ox = 0; ox < ow; ++ox) {
        const int64_t iy = oy * g.stride_h - g.pad_h + kh;
        const int64_t ix = ox * g.stride_w - g.pad_w + kw;
        if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) continue;
        img[static_cast<size_t>((c * g.in_h + iy) * g.in_w + ix)] +=
            cols[static_cast<size_t>((row * oh + oy) * ow + ox)];
      }
    }
  }
  return img;
}

/// Index of the first differing element (bitwise), or -1.
template <typename T>
int64_t first_mismatch(const std::vector<T>& got, const std::vector<T>& want) {
  if (got.size() != want.size()) return 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

/// The (kk, kc) slices a sweep geometry checks: the driver's full depth, a
/// slice starting mid-tap (kk not a multiple of kh*kw) that crosses
/// channels, and the last few rows.
std::vector<std::pair<int64_t, int64_t>> panel_slices(const Conv2dGeom& g) {
  const int64_t rows = g.col_rows();
  const int64_t khw = g.kernel_h * g.kernel_w;
  const int64_t mid = std::min(khw + 1, rows / 2 + 1);
  return {{0, rows},
          {mid, std::min(rows - mid, 2 * khw + 3)},
          {rows - 5, 5}};
}

TEST(LoweringSweep, Im2colAndCol2imMatchNaiveOracle) {
  Rng rng(31);
  ThreadPool pool(3);
  ExecutionContext ctx;
  ctx.set_pool(&pool);
  for (const SweepGeom& sg : lowering_sweep()) {
    const Conv2dGeom& g = sg.g;
    const std::vector<float> img = random_image(g, rng);
    const std::vector<float> want = im2col_oracle(g, img);
    for (const GuardedImage::Flush flush : kFlushes) {
      const GuardedImage guarded(img, flush);
      std::vector<float> cols(want.size(), -7.0f);
      im2col(g, guarded.data(), cols.data());
      ASSERT_EQ(first_mismatch(cols, want), -1) << sg.name << " (serial)";
      std::fill(cols.begin(), cols.end(), -7.0f);
      im2col(ctx, g, guarded.data(), cols.data());
      ASSERT_EQ(first_mismatch(cols, want), -1) << sg.name << " (ctx)";
    }

    std::vector<float> dcol(want.size());
    for (float& v : dcol) v = static_cast<float>(rng.normal());
    std::vector<float> grad(img.size(), 0.0f);
    col2im(g, dcol.data(), grad.data());
    ASSERT_EQ(first_mismatch(grad, col2im_oracle(g, dcol)), -1) << sg.name;
  }
}

TEST(LoweringSweep, PanelProducerMatchesNaiveOracleBitwise) {
  Rng rng(32);
  for (const SweepGeom& sg : lowering_sweep()) {
    const Conv2dGeom& g = sg.g;
    const std::vector<float> img = random_image(g, rng);
    const std::vector<float> cols = im2col_oracle(g, img);
    const int64_t ncols = g.col_cols();
    for (const GuardedImage::Flush flush : kFlushes) {
      const GuardedImage guarded(img, flush);
      for (const auto& [kk, kc] : panel_slices(g)) {
        for (int64_t j0 = 0; j0 < ncols; j0 += simd::kNR) {
          const int nr =
              static_cast<int>(std::min<int64_t>(simd::kNR, ncols - j0));
          std::vector<float> want(static_cast<size_t>(kc * simd::kNR), 0.0f);
          for (int64_t p = 0; p < kc; ++p) {
            for (int j = 0; j < nr; ++j) {
              want[static_cast<size_t>(p * simd::kNR + j)] =
                  cols[static_cast<size_t>((kk + p) * ncols + j0 + j)];
            }
          }
          std::vector<float> panel(want.size(), -7.0f);
          im2col_pack_panel(g, guarded.data(), kk, kc, j0, nr, panel.data());
          const int64_t at = first_mismatch(panel, want);
          ASSERT_EQ(at, -1) << sg.name << " kk=" << kk << " kc=" << kc
                            << " j0=" << j0 << " row=" << at / simd::kNR
                            << " lane=" << at % simd::kNR;
        }
      }
    }
  }
}

TEST(LoweringSweep, QuantizedPanelProducerMatchesNaiveOracleBitwise) {
  Rng rng(33);
  const float inv_scale = 20.0f;
  const int32_t zero_point = 64;
  for (const SweepGeom& sg : lowering_sweep()) {
    const Conv2dGeom& g = sg.g;
    const std::vector<float> img = random_image(g, rng);
    const std::vector<float> cols = im2col_oracle(g, img);
    const int64_t ncols = g.col_cols();
    for (const GuardedImage::Flush flush : kFlushes) {
      const GuardedImage guarded(img, flush);
      for (const auto& [kk, kc] : panel_slices(g)) {
        const int64_t groups = (kc + simd::kKG - 1) / simd::kKG;
        for (int64_t j0 = 0; j0 < ncols; j0 += simd::kNR) {
          const int nr =
              static_cast<int>(std::min<int64_t>(simd::kNR, ncols - j0));
          std::vector<uint8_t> want(
              static_cast<size_t>(groups * simd::kNR * simd::kKG), 0);
          for (int64_t p = 0; p < kc; ++p) {
            for (int j = 0; j < nr; ++j) {
              want[static_cast<size_t>(
                  (p / simd::kKG) * simd::kNR * simd::kKG + j * simd::kKG +
                  p % simd::kKG)] =
                  simd::quantize_u7(
                      cols[static_cast<size_t>((kk + p) * ncols + j0 + j)],
                      inv_scale, zero_point);
            }
          }
          std::vector<uint8_t> panel(want.size(), 0xAB);
          im2col_pack_panel_u8(g, guarded.data(), kk, kc, j0, nr, inv_scale,
                               zero_point, panel.data());
          ASSERT_EQ(first_mismatch(panel, want), -1)
              << sg.name << " kk=" << kk << " kc=" << kc << " j0=" << j0;
        }
      }
    }
  }
}

TEST(ConvGeometry, WindowLargerThanPaddedInputThrows) {
  // Such a window has no output position. Without the check the shape
  // arithmetic yields negative dims (which the panel builder cannot walk)
  // or, with stride 2, a 1x1 map that reads only padding.
  struct Bad {
    int64_t hw, kernel, stride, pad;
  };
  const Bad bad[] = {{2, 5, 1, 0}, {3, 7, 1, 1}, {0, 3, 2, 1}, {1, 5, 2, 1}};
  Rng rng(34);
  ExecutionContext ctx;
  for (const Bad& b : bad) {
    const Tensor x(Shape{1, 4, b.hw, b.hw});
    nn::Conv2d conv(4, 4,
                    {.kernel = b.kernel, .stride = b.stride, .pad = b.pad,
                     .bias = false},
                    rng);
    EXPECT_THROW(conv.out_shape(x.shape()), std::invalid_argument) << b.hw;
    EXPECT_THROW(conv.forward(ctx, x, false), std::invalid_argument) << b.hw;
    EXPECT_THROW(conv.forward(ctx, x, true), std::invalid_argument) << b.hw;
  }
  // A window exactly as large as the padded input is a 1x1 output.
  const Tensor x(Shape{1, 4, 3, 3});
  nn::Conv2d conv(4, 4, {.kernel = 5, .stride = 2, .pad = 1, .bias = false},
                  rng);
  EXPECT_EQ(conv.forward(ctx, x, true).shape(), (Shape{1, 4, 1, 1}));
}

TEST(FusedLowering, ConvForwardMatchesMaterializedBitwise) {
  ExecutionContext ctx;
  Rng rng(22);
  for (const ConvCase& c : kConvCases) {
    nn::Conv2d conv(c.in_c, c.out_c,
                    {.kernel = c.kernel, .stride = c.stride, .pad = c.pad,
                     .bias = false},
                    rng);
    const Conv2dGeom g = geom_of(c);
    const Tensor x = Tensor::randn(Shape{2, c.in_c, c.ih, c.iw}, rng);
    const Tensor got = conv.forward(ctx, x, false);
    const Tensor want = conv_materialized_packed(ctx, conv, g, x);
    ASSERT_EQ(got.shape(), want.shape()) << c.name;
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], want[i]) << c.name << " at " << i;
    }
  }
}

TEST(FusedLowering, ConvForwardMatchesScalarReference) {
  // Cross-implementation tolerance check (FMA vs scalar): ~1e-6 relative at
  // these CIFAR-scale depths; the suite-wide 1e-4 bound is asserted.
  ExecutionContext ctx;
  Rng rng(23);
  for (const ConvCase& c : kConvCases) {
    nn::Conv2d conv(c.in_c, c.out_c,
                    {.kernel = c.kernel, .stride = c.stride, .pad = c.pad,
                     .bias = false},
                    rng);
    const Conv2dGeom g = geom_of(c);
    const int64_t rows = g.col_rows(), cols = g.col_cols();
    const Tensor x = Tensor::randn(Shape{1, c.in_c, c.ih, c.iw}, rng);
    const Tensor got = conv.forward(ctx, x, false);
    std::vector<float> colbuf(static_cast<size_t>(rows * cols));
    im2col(g, x.data(), colbuf.data());
    Tensor want(got.shape());
    gemm_nn_reference(ctx, c.out_c, cols, rows, 1.0f, conv.weight().data(),
                      colbuf.data(), 0.0f, want.data());
    expect_close(got, want);
  }
}

// ------------------------------------------------ arena accounting ---------

TEST(FusedLowering, ConvForwardDoesNotMaterializeColumnMatrix) {
  // A [in_c*kh*kw, oh*ow] column matrix of a 16-channel 3x3 conv with a
  // 32x32 output. The GEMM path's high-water mark is the per-call A pack
  // plus the per-chunk panel slabs, an order of magnitude below it; the
  // direct path allocates nothing at all.
  const int64_t colbuf_floats = 16 * 3 * 3 * 32 * 32;
  Rng rng(24);
  for (const int64_t stride : {2, 1}) {
    nn::Conv2d conv(16, 16,
                    {.kernel = 3, .stride = stride, .pad = 1, .bias = false},
                    rng);
    const Tensor x = Tensor::randn(Shape{1, 16, 32 * stride, 32 * stride}, rng);
    ExecutionContext ctx;
    conv.forward(ctx, x, false);
    if (conv.direct()) {
      EXPECT_EQ(ctx.arena().capacity_floats(), 0) << "stride " << stride;
    } else {
      EXPECT_GT(ctx.arena().capacity_floats(), 0) << "stride " << stride;
      EXPECT_LT(ctx.arena().capacity_floats(), colbuf_floats / 2)
          << "stride " << stride;
    }
  }
}

TEST(FusedLowering, Direct1x1UsesInputInPlace) {
  Rng rng(25);
  nn::Conv2d conv(64, 64, {.kernel = 1, .stride = 1, .pad = 0, .bias = false},
                  rng);
  const Tensor x = Tensor::randn(Shape{1, 64, 32, 32}, rng);
  ExecutionContext ctx;
  conv.forward(ctx, x, false);
  // No lowering at all: the arena holds only the per-call weight pack.
  const int64_t colbuf_floats = 64 * 32 * 32;
  EXPECT_LT(ctx.arena().capacity_floats(), colbuf_floats / 2);
}

// ------------------------------------------------ pool-size determinism ----

TEST(ThreadedGemm, BitsIndependentOfPoolSize) {
  Rng rng(26);
  const int64_t m = 64, n = 1024, k = 288;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor base(Shape{m, n});
  {
    ThreadPool pool(1);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, base.data());
  }
  for (int threads : {2, 3, 4}) {
    ThreadPool pool(threads);
    ExecutionContext ctx;
    ctx.set_pool(&pool);
    Tensor got(Shape{m, n});
    gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, got.data());
    for (int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], base[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(ThreadedGemm, FusedConvBitsIndependentOfPoolSize) {
  // Stride 2 takes the GEMM path on every tier; stride 1 takes the direct
  // path where the tier has one.
  Rng rng(27);
  const Tensor x = Tensor::randn(Shape{2, 8, 19, 17}, rng);  // ragged panels
  for (const int64_t stride : {2, 1}) {
    nn::Conv2d conv(8, 12,
                    {.kernel = 3, .stride = stride, .pad = 1, .bias = false},
                    rng);
    Tensor base;
    {
      ThreadPool pool(1);
      ExecutionContext ctx;
      ctx.set_pool(&pool);
      base = conv.forward(ctx, x, false);
    }
    for (int threads : {2, 4}) {
      ThreadPool pool(threads);
      ExecutionContext ctx;
      ctx.set_pool(&pool);
      const Tensor got = conv.forward(ctx, x, false);
      for (int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_EQ(got[i], base[i])
            << "stride=" << stride << " threads=" << threads << " at " << i;
      }
    }
  }
}

// ------------------------------------------------ direct 3x3 conv ----------
//
// The direct path (nn::Conv2d::direct, simd::direct_conv3x3) must give the
// packed GEMM's bits. Each case is checked three ways: Conv2d's dispatched
// forward against conv_materialized_packed (the GEMM on the same tier); the
// direct kernel of every x86 tier this host supports, whichever tier the
// dispatch picked, against the GEMM's chain spelled with std::fmaf; and, on
// a tier with direct kernels, the GEMM itself against that spelling.

/// The packed GEMM's per-element chain for a 3x3, stride-1, pad-1 conv (see
/// simd.h), before the epilogue: one fused chain from +0.0f over
/// (c, ky, kx), padded taps multiplied as +0.0f. A single chain however
/// deep, so it is the GEMM's only while the depth fits one k-slice.
Tensor fma_chain_oracle(const Tensor& w, const Tensor& x) {
  const int64_t n = x.dim(0), in_c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t out_c = w.dim(0);
  Tensor y(Shape{n, out_c, h, wd});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t o = 0; o < out_c; ++o) {
      for (int64_t oy = 0; oy < h; ++oy) {
        for (int64_t ox = 0; ox < wd; ++ox) {
          float acc = 0.0f;
          for (int64_t c = 0; c < in_c; ++c) {
            for (int64_t ky = 0; ky < 3; ++ky) {
              for (int64_t kx = 0; kx < 3; ++kx) {
                const int64_t iy = oy + ky - 1, ix = ox + kx - 1;
                const float v = iy >= 0 && iy < h && ix >= 0 && ix < wd
                                    ? x[((i * in_c + c) * h + iy) * wd + ix]
                                    : 0.0f;
                acc = std::fmaf(w[((o * in_c + c) * 3 + ky) * 3 + kx], v, acc);
              }
            }
          }
          y[((i * out_c + o) * h + oy) * wd + ox] = acc;
        }
      }
    }
  }
  return y;
}

/// The GEMM epilogue on a chain's result: fmaf(scale, v, shift) when either
/// is set, then ReLU.
Tensor with_epilogue(Tensor y, const GemmEpilogue& ep) {
  const int64_t out_c = y.dim(1), plane = y.dim(2) * y.dim(3);
  for (int64_t i = 0; i < y.numel(); ++i) {
    const int64_t o = (i / plane) % out_c;
    float v = y[i];
    if (ep.row_scale != nullptr || ep.row_shift != nullptr) {
      v = std::fmaf(ep.row_scale != nullptr ? ep.row_scale[o] : 1.0f, v,
                    ep.row_shift != nullptr ? ep.row_shift[o] : 0.0f);
    }
    if (ep.act == simd::Act::kReLU) v = v > 0.0f ? v : 0.0f;
    y[i] = v;
  }
  return y;
}

/// Element-wise bit equality (NaN payloads included).
void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]), std::bit_cast<uint32_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// The direct kernels of every x86 tier this host can run.
std::vector<std::pair<const char*, const simd::DirectConv3x3*>>
direct_tiers() {
  std::vector<std::pair<const char*, const simd::DirectConv3x3*>> out;
  for (const auto& [name, isa] :
       {std::pair{"avx2", simd::Isa::kAvx2},
        std::pair{"avx512", simd::Isa::kAvx512}}) {
    if (const simd::DirectConv3x3* k = simd::direct_conv3x3_for(isa)) {
      out.emplace_back(name, k);
    }
  }
  return out;
}

/// Runs a tier's direct forward one unit at a time, last unit first: the
/// bits must not depend on how the units are split or ordered.
Tensor run_direct_tier(const simd::DirectConv3x3& k, const Tensor& w,
                       const Tensor& x, const float* scale,
                       const float* shift, simd::Act act) {
  Tensor y(Shape{x.dim(0), w.dim(0), x.dim(2), x.dim(3)});
  simd::Conv3x3Args a;
  a.x = x.data();
  a.y = y.data();
  a.w = w.data();
  a.w_out = w.dim(1) * 9;
  a.w_in = 9;
  a.w_tap = 1;
  a.n = x.dim(0);
  a.in_c = x.dim(1);
  a.out_c = w.dim(0);
  a.height = x.dim(2);
  a.width = x.dim(3);
  a.row_scale = scale;
  a.row_shift = shift;
  a.act = act;
  for (int64_t u = k.forward_units(a); u-- > 0;) k.forward(a, u, u + 1);
  return y;
}

/// Checks one conv and epilogue the three ways described above; `raw` is
/// fma_chain_oracle of the conv's weight and x.
void check_direct_forward(const ExecutionContext& ctx, nn::Conv2d& conv,
                          const Tensor& x, const Tensor& raw,
                          const Tensor& got, const GemmEpilogue& ep,
                          const std::string& what) {
  Conv2dGeom g;
  g.in_c = x.dim(1);
  g.in_h = x.dim(2);
  g.in_w = x.dim(3);
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  const Tensor want = conv_materialized_packed(ctx, conv, g, x, ep);
  expect_same_bits(got, want, what + " (dispatched vs GEMM)");
  const Tensor chain = with_epilogue(raw, ep);
  if (simd::direct_conv3x3() != nullptr &&
      x.dim(1) * 9 <= packdetail::kBlockK) {
    expect_same_bits(want, chain, what + " (GEMM vs fmaf chain)");
  }
  for (const auto& [tier, k] : direct_tiers()) {
    expect_same_bits(run_direct_tier(*k, conv.weight(), x, ep.row_scale,
                                     ep.row_shift, ep.act),
                     chain, what + " (" + tier + " direct vs fmaf chain)");
  }
}

TEST(DirectConv, ForwardMatchesPackedGemmBitwise) {
  // Every listed width, plane and batch, paired cyclically (42 cases). 72
  // input channels is the first depth past one k-slice: the layer keeps
  // the GEMM there, and only the kernels are held to the single chain.
  const int64_t kIn[] = {1, 3, 8, 16, 64, 71, 72};
  const int64_t kOut[] = {1, 5, 8, 12, 64};
  const int64_t kPlane[][2] = {{1, 1},   {7, 9},   {8, 8},
                               {16, 16}, {32, 32}, {33, 33}};
  if (simd::direct_conv3x3() != nullptr) {
    ASSERT_FALSE(direct_tiers().empty());
  }
  Rng rng(40);
  ExecutionContext ctx;
  for (int i = 0; i < 42; ++i) {
    const int64_t in_c = kIn[i % 7], out_c = kOut[i % 5];
    const int64_t h = kPlane[i % 6][0], w = kPlane[i % 6][1];
    const int64_t n = i % 2 == 0 ? 1 : 3;
    const bool bias = i % 3 == 0;
    nn::Conv2d conv(in_c, out_c,
                    {.kernel = 3, .stride = 1, .pad = 1, .bias = bias}, rng);
    if (bias) conv.bias() = Tensor::randn(Shape{out_c}, rng);
    const Tensor x = Tensor::randn(Shape{n, in_c, h, w}, rng);
    const Tensor scale = Tensor::randn(Shape{out_c}, rng);
    const Tensor shift = Tensor::randn(Shape{out_c}, rng);
    const std::string what = std::to_string(in_c) + "->" +
                             std::to_string(out_c) + " " + std::to_string(h) +
                             "x" + std::to_string(w) + " n" +
                             std::to_string(n);
    const Tensor raw = fma_chain_oracle(conv.weight(), x);
    // The plain forward: its bias is the GEMM's row shift.
    GemmEpilogue plain;
    plain.row_shift = bias ? conv.bias().data() : nullptr;
    check_direct_forward(ctx, conv, x, raw, conv.forward(ctx, x, false), plain,
                         what + " forward");
    // forward_fused as the fusion plan calls it: BN scale/shift and ReLU,
    // shift alone, ReLU alone.
    const GemmEpilogue fused[] = {
        {scale.data(), shift.data(), nullptr, simd::Act::kReLU},
        {nullptr, shift.data(), nullptr, simd::Act::kNone},
        {nullptr, nullptr, nullptr, simd::Act::kReLU}};
    const GemmEpilogue& ep = fused[i % 3];
    check_direct_forward(
        ctx, conv, x, raw,
        conv.forward_fused(ctx, x, ep.row_scale, ep.row_shift, ep.act), ep,
        what + " fused");
  }
}

TEST(DirectConv, GradientKernelsOfEveryTierMatchOracle) {
  // dX (the forward kernel on dy, weight transposed and flipped through its
  // strides) and dW of every x86 tier the host supports, against direct
  // loops in double: whichever tier the dispatch picked, Conv2d's backward
  // tests reach only that one. Plane sizes cover tail tiles and dW's tile
  // chunks; each dW entry starts from a nonzero value it must add onto.
  struct Case {
    int64_t in_c, out_c, h, w, n;
  };
  const Case cases[] = {{3, 5, 7, 9, 2},
                        {8, 8, 8, 8, 3},
                        {1, 7, 16, 16, 2},
                        {8, 3, 33, 33, 1},
                        {9, 12, 1, 1, 2}};
  Rng rng(42);
  for (const Case& cs : cases) {
    const Tensor x = Tensor::randn(Shape{cs.n, cs.in_c, cs.h, cs.w}, rng);
    const Tensor w = Tensor::randn(Shape{cs.out_c, cs.in_c, 3, 3}, rng);
    const Tensor dy = Tensor::randn(Shape{cs.n, cs.out_c, cs.h, cs.w}, rng);
    const Tensor dw0 = Tensor::randn(w.shape(), rng);
    std::vector<double> dx(static_cast<size_t>(x.numel())), dx_scale(dx.size());
    std::vector<double> dw(static_cast<size_t>(w.numel())), dw_scale(dw.size());
    for (int64_t i = 0; i < cs.n; ++i) {
      for (int64_t o = 0; o < cs.out_c; ++o) {
        for (int64_t y = 0; y < cs.h; ++y) {
          for (int64_t xo = 0; xo < cs.w; ++xo) {
            const double g = dy[((i * cs.out_c + o) * cs.h + y) * cs.w + xo];
            for (int64_t c = 0; c < cs.in_c; ++c) {
              for (int64_t ky = 0; ky < 3; ++ky) {
                for (int64_t kx = 0; kx < 3; ++kx) {
                  const int64_t iy = y + ky - 1, ix = xo + kx - 1;
                  if (iy < 0 || iy >= cs.h || ix < 0 || ix >= cs.w) continue;
                  const size_t xi = static_cast<size_t>(
                      ((i * cs.in_c + c) * cs.h + iy) * cs.w + ix);
                  const size_t wi =
                      static_cast<size_t>(((o * cs.in_c + c) * 3 + ky) * 3 + kx);
                  const double xv = x[static_cast<int64_t>(xi)];
                  const double wv = w[static_cast<int64_t>(wi)];
                  dx[xi] += g * wv;
                  dx_scale[xi] += std::fabs(g * wv);
                  dw[wi] += g * xv;
                  dw_scale[wi] += std::fabs(g * xv);
                }
              }
            }
          }
        }
      }
    }
    for (const auto& [tier, k] : direct_tiers()) {
      const std::string what = std::string(tier) + " " +
                               std::to_string(cs.in_c) + "->" +
                               std::to_string(cs.out_c) + " " +
                               std::to_string(cs.h) + "x" +
                               std::to_string(cs.w);
      Tensor got_dx(x.shape());
      simd::Conv3x3Args d;
      d.x = dy.data();
      d.y = got_dx.data();
      d.w = w.data() + 8;
      d.w_out = 9;
      d.w_in = cs.in_c * 9;
      d.w_tap = -1;
      d.n = cs.n;
      d.in_c = cs.out_c;
      d.out_c = cs.in_c;
      d.height = cs.h;
      d.width = cs.w;
      k->forward(d, 0, k->forward_units(d));
      Tensor got_dw = dw0;
      simd::Conv3x3GradArgs g;
      g.x = x.data();
      g.dy = dy.data();
      g.dw = got_dw.data();
      g.n = cs.n;
      g.in_c = cs.in_c;
      g.out_c = cs.out_c;
      g.height = cs.h;
      g.width = cs.w;
      for (int64_t u = k->weight_grad_units(g); u-- > 0;) {
        k->weight_grad(g, u, u + 1);
      }
      for (int64_t i = 0; i < x.numel(); ++i) {
        const size_t u = static_cast<size_t>(i);
        ASSERT_NEAR(got_dx[i], dx[u], 1e-4 * (dx_scale[u] + 1e-3))
            << what << " dX at " << i;
      }
      for (int64_t i = 0; i < w.numel(); ++i) {
        const size_t u = static_cast<size_t>(i);
        const double want = dw0[i] + dw[u];
        ASSERT_NEAR(got_dw[i], want,
                    1e-4 * (std::fabs(dw0[i]) + dw_scale[u] + 1e-3))
            << what << " dW at " << i;
      }
    }
  }
}

TEST(DirectConv, InfWeightMakesPaddedTapsNaNLikeTheGemm) {
  // The GEMM multiplies padded taps by +0.0f, so an infinite weight turns
  // every output whose tap at that weight is padding into NaN. The direct
  // path must multiply, not skip.
  Rng rng(41);
  nn::Conv2d conv(8, 5, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  conv.weight()[((2 * 8 + 3) * 3 + 0) * 3 + 0] =
      std::numeric_limits<float>::infinity();  // o 2, c 3, tap (0, 0)
  const Tensor x = Tensor::randn(Shape{2, 8, 7, 9}, rng);
  ExecutionContext ctx;
  const Tensor got = conv.forward(ctx, x, false);
  int64_t nans = 0;
  for (int64_t i = 0; i < got.numel(); ++i) nans += std::isnan(got[i]) ? 1 : 0;
  EXPECT_GT(nans, 0);
  check_direct_forward(ctx, conv, x, fma_chain_oracle(conv.weight(), x), got,
                       GemmEpilogue{}, "inf weight");
}

// ------------------------------------------------ packed gemm_tn -----------

TEST(PackedGemmTn, MatchesReference) {
  ExecutionContext ctx;
  Rng rng(28);
  const struct { int64_t m, n, k; } shapes[] = {
      {144, 64, 16},   // conv backward dcols: rows x cols, k = out_c
      {64, 33, 48},    // ragged n
      {10, 100, 700},  // k crosses the packed k-block (batch*spatial axis)
      {5, 10, 20},     // n < kNR: stays on the streaming reference kernel
  };
  for (const auto& s : shapes) {
    const Tensor at = Tensor::randn(Shape{s.k, s.m}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    for (float beta : {0.0f, 1.0f}) {
      Tensor got = Tensor::randn(Shape{s.m, s.n}, rng);
      Tensor want = got;
      gemm_tn(ctx, s.m, s.n, s.k, 1.0f, at.data(), b.data(), beta, got.data());
      gemm_tn_reference(ctx, s.m, s.n, s.k, 1.0f, at.data(), b.data(), beta,
                        want.data());
      ASSERT_EQ(got.shape(), want.shape());
      for (int64_t i = 0; i < got.numel(); ++i) {
        const float tol = 1e-4f + 1e-4f * std::fabs(want[i]);
        ASSERT_NEAR(got[i], want[i], tol)
            << "m=" << s.m << " n=" << s.n << " k=" << s.k << " beta=" << beta
            << " at " << i;
      }
    }
  }
}

TEST(PackedGemmTn, BitwiseMatchesGemmNnOnTransposedA) {
  // pack_a_from_at produces byte-identical panels to pack_a_rowmajor on the
  // un-transposed matrix, so the two entry points agree bit for bit.
  ExecutionContext ctx;
  Rng rng(29);
  const int64_t m = 14, n = 50, k = 90;
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  Tensor at(Shape{k, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c_nn(Shape{m, n}), c_tn(Shape{m, n});
  gemm_nn(ctx, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_nn.data());
  gemm_tn(ctx, m, n, k, 1.0f, at.data(), b.data(), 0.0f, c_tn.data());
  for (int64_t i = 0; i < c_nn.numel(); ++i) {
    ASSERT_EQ(c_tn[i], c_nn[i]) << "at " << i;
  }
}

// ------------------------------------------------ hoisted BN composition ---

TEST(Fusion, PreparedPlanCachesComposedBn) {
  Rng rng(35);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      3, 8, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(8);
  seq.emplace<nn::ReLU>();
  ExecutionContext ctx;
  seq.prepare_inference(ctx);
  const Tensor x = Tensor::randn(Shape{1, 3, 6, 6}, rng);
  const Tensor before = seq.forward(ctx, x, false);
  // A prepared model is frozen (Layer::prepare_inference contract): the
  // composed scale/shift were hoisted to prepare time, so editing the BN
  // afterwards must not change the fused output.
  seq.find_nth<nn::BatchNorm2d>(0)->gamma()[0] = 123.0f;
  const Tensor after = seq.forward(ctx, x, false);
  for (int64_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "at " << i;
  }
}

}  // namespace
}  // namespace tbnet
