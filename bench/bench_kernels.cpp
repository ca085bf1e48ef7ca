// bench_kernels — machine-readable microbenchmarks for the dense-compute
// hot path. Emits one JSON document (BENCH_kernels.json in CI) with
// single-thread GFLOP/s per GEMM shape for the scalar reference kernel
// ("before": the PR-1 register-blocked kernel, gemm_nn_reference) and the
// packed kernel on the dispatched tier ("after"; TBNET_DETERMINISTIC=1
// pins the portable scalar tier, and "isa" says which ran), a
// 1/2/4-thread scaling sweep on large shapes, nested-parallel_for scaling
// (work-stealing vs the inline-serial path), fused-lowering vs materialized
// conv timings (with the fused call's panel-build time and arena
// footprints), fused-epilogue conv timings, and training-mode layer timings
// (ReLU, BatchNorm2d, conv backward). The shape list is the im2col GEMMs a
// CIFAR-scale ResNet victim actually produces, so the speedup column tracks
// the serving-relevant sizes rather than only square LINPACK-style GEMMs.
//
// Usage: bench_kernels [--quick]
//   --quick  small shapes / fewer reps; the CI smoke configuration.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <thread>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/quant.h"
#include "nn/sequential.h"
#include "nn/activations.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/pack.h"
#include "tensor/rng.h"
#include "tensor/simd.h"
#include "tensor/threadpool.h"

namespace {

using namespace tbnet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct GemmShape {
  const char* name;
  int64_t m, n, k;
  bool quick;  ///< included in the --quick CI smoke subset
};

// ResNet20/CIFAR im2col shapes (m = out_c, n = out_h*out_w, k = in_c*9) and
// a few generic square sizes for context.
const GemmShape kShapes[] = {
    {"resnet_stem_3to16_32x32", 16, 1024, 27, true},
    {"resnet_s1_16to16_32x32", 16, 1024, 144, true},
    {"resnet_s2_16to32_16x16", 32, 256, 144, true},
    {"resnet_s2_32to32_16x16", 32, 256, 288, false},
    {"resnet_s3_32to64_8x8", 64, 64, 288, false},
    {"resnet_s3_64to64_8x8", 64, 64, 576, true},
    {"dense_head_64to10_b1", 1, 10, 64, true},
    {"square_64", 64, 64, 64, false},
    {"square_128", 128, 128, 128, false},
    {"square_256", 256, 256, 256, false},
};

using GemmFn = void (*)(const ExecutionContext&, int64_t, int64_t, int64_t,
                        float, const float*, const float*, float, float*);

/// Best-of-reps GFLOP/s for one kernel on one shape.
double bench_gemm(GemmFn fn, const ExecutionContext& ctx, const GemmShape& s,
                  const Tensor& a, const Tensor& b, Tensor& c, int reps) {
  fn(ctx, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, c.data());  // warmup
  const double flops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.n) * static_cast<double>(s.k);
  // Batch calls so tiny shapes are timed over >= ~1e7 flops per sample.
  const int inner = std::max<int>(1, static_cast<int>(1e7 / flops));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) {
      fn(ctx, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    }
    const double dt = seconds_since(t0);
    best = std::max(best, flops * inner / dt / 1e9);
  }
  return best;
}

void gemm_packed_entry(const ExecutionContext& ctx, int64_t m, int64_t n,
                       int64_t k, float alpha, const float* a, const float* b,
                       float beta, float* c) {
  gemm_nn(ctx, m, n, k, alpha, a, b, beta, c);
}

/// Int8 GEMM throughput on the same shape, measured end to end the way the
/// serving path runs it: pre-packed s8 weight panels, quantize-on-pack u8 B
/// panels produced from the f32 activation matrix, i32 accumulation, and the
/// dequant+ReLU epilogue. GFLOP/s-equivalent (2mnk ops over wall time) so
/// the number reads directly against the f32 packed column.
double bench_int8_gemm(const ExecutionContext& ctx, const GemmShape& s,
                       const Tensor& a, const Tensor& b, int reps) {
  const nn::ActQuant act = nn::act_quant_from_range(-4.0f, 4.0f);  // randn B
  const nn::QuantizedWeights qw =
      nn::quantize_weights(a.data(), s.m, s.k, act);
  std::vector<int8_t> apack(
      static_cast<size_t>(packdetail::packed_a_i8_bytes(s.m, s.k)));
  packdetail::pack_a_i8(s.m, s.k, qw.q.data(), s.k, apack.data());
  std::vector<float> es(static_cast<size_t>(s.m)), et(es);
  nn::compose_quant_epilogue(qw, nullptr, nullptr, s.m, es.data(), et.data());
  const simd::QuantEpilogue qep{es.data(), et.data(), simd::Act::kReLU};
  const float inv = 1.0f / qw.act.scale;
  const int32_t zp = qw.act.zero_point;
  const float* bp = b.data();
  const int64_t n = s.n;
  Tensor c(Shape{s.m, s.n});
  const auto produce = [bp, n, inv, zp](int64_t kk, int64_t kc, int64_t j0,
                                        int nr, uint8_t* panel) {
    const simd::QuantizeU7GroupFn qgroup = simd::quantize_u7_group();
    const int64_t kg = (kc + simd::kKG - 1) / simd::kKG;
    for (int64_t gi = 0; gi < kg; ++gi) {
      uint8_t* grp = panel + gi * simd::kNR * simd::kKG;
      const float* row = bp + (kk + gi * simd::kKG) * n + j0;
      if (gi * simd::kKG + simd::kKG <= kc && nr == simd::kNR) {
        qgroup(row, row + n, row + 2 * n, row + 3 * n, grp, inv, zp);
        continue;
      }
      for (int64_t j = 0; j < simd::kNR; ++j) {
        for (int64_t t = 0; t < simd::kKG; ++t) {
          const int64_t p = gi * simd::kKG + t;
          grp[j * simd::kKG + t] =
              p < kc && j < nr
                  ? simd::quantize_u7(bp[(kk + p) * n + j0 + j], inv, zp)
                  : uint8_t{0};
        }
      }
    }
  };
  const auto run = [&] {
    packdetail::run_packed_i8_producer(ctx, s.m, s.n, s.k, apack.data(),
                                       produce, c.data(), s.n, qep);
  };
  run();  // warmup
  const double flops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.n) * static_cast<double>(s.k);
  const int inner = std::max<int>(1, static_cast<int>(1e7 / flops));
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) run();
    best = std::max(best, flops * inner / seconds_since(t0) / 1e9);
  }
  return best;
}

/// Raw microkernel throughput on L1-resident panels — the practical ceiling
/// any driver-level number should be read against (cloud vCPUs vary widely
/// in AVX turbo behavior).
double micro_roofline_gflops(int reps) {
  const int64_t kc = 576;
  std::vector<float> a(static_cast<size_t>(simd::kMR * kc), 1.1f);
  std::vector<float> b(static_cast<size_t>(simd::kNR * kc), 2.2f);
  std::vector<float> c(static_cast<size_t>(simd::kMR * simd::kNR), 0.0f);
  const simd::MicroKernelFn micro = simd::micro_kernel();
  const double flops = 2.0 * simd::kMR * simd::kNR * kc;
  const int inner = 20000;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < inner; ++i) {
      micro(kc, a.data(), b.data(), simd::kNR, c.data(), simd::kNR, simd::kMR,
            simd::kNR, 1.0f, 0.0f, nullptr);
    }
    best = std::max(best, flops * inner / seconds_since(t0) / 1e9);
  }
  return best;
}

// Shapes big enough that the column-panel sharding has work to distribute;
// scaling numbers are only meaningful when the host actually has the cores
// (the emitted hardware_threads field says whether it does).
struct MtShape {
  const char* name;
  int64_t m, n, k;
  bool quick;
};

const MtShape kMtShapes[] = {
    {"mt_conv_64x4096x576", 64, 4096, 576, true},  // batch-4 8x8 conv GEMM
    {"mt_square_512", 512, 512, 512, false},
};

/// Packed-GEMM GFLOP/s on a dedicated pool of `threads` workers.
double bench_gemm_threads(const MtShape& s, int threads, const Tensor& a,
                          const Tensor& b, Tensor& c, int reps) {
  ThreadPool pool(threads);
  ExecutionContext ctx;
  ctx.set_pool(&pool);
  GemmShape gs{s.name, s.m, s.n, s.k, s.quick};
  return bench_gemm(&gemm_packed_entry, ctx, gs, a, b, c, reps);
}

/// Nested parallel_for scaling: the serving shape where a pool task (an
/// outer dispatch chunk) issues its own parallel_for. The PR-4 scheduler ran
/// nested chunks inline, serially; the work-stealing pool queues them on the
/// issuing worker's deque where idle threads steal. The benchmark stages
/// exactly that: an outer parallel_for over `threads` chunks whose LAST
/// chunk runs a heavy inner loop — the other chunks finish instantly, so
/// their threads are free to steal — and compares the inner loop executed
/// (a) serially over the same chunk boundaries (the PR-4 inline behavior)
/// and (b) as a real nested parallel_for. On a 1-vCPU builder the two are
/// necessarily ~equal; on a multi-core host (b) must win, which the CI gate
/// on the hosted runner checks (`speedup` > 1.0 when hardware_threads >= 2).
struct NestedPoint {
  int threads = 0;
  double inline_ms = 0.0;
  double stolen_ms = 0.0;
};

NestedPoint bench_nested(int threads, int reps) {
  const int64_t n = 1 << 15;
  std::vector<float> out(static_cast<size_t>(n));
  auto work = [&out](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      float acc = static_cast<float>(i) * 1e-3f;
      for (int k = 0; k < 400; ++k) acc = acc * 0.9999f + 1e-4f;
      out[static_cast<size_t>(i)] = acc;
    }
  };
  ThreadPool pool(threads);
  const int64_t outer_n = threads;
  const int64_t outer_chunk = pool.chunk_size(outer_n);  // 1
  const int64_t heavy = (outer_n - 1) * outer_chunk;     // last chunk
  const int64_t inner_chunk = pool.chunk_size(n);
  NestedPoint p;
  p.threads = threads;
  auto best_ms = [&](auto&& run_inner) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      pool.parallel_for(outer_n, [&](int64_t b, int64_t) {
        if (b == heavy) run_inner();
      });
      best = std::min(best, seconds_since(t0) * 1e3);
    }
    return best;
  };
  p.inline_ms = best_ms([&] {
    // The PR-4 inline path: same chunk boundaries, one thread.
    for (int64_t b = 0; b < n; b += inner_chunk) {
      work(b, std::min(n, b + inner_chunk));
    }
  });
  p.stolen_ms = best_ms([&] { pool.parallel_for(n, work); });
  return p;
}

struct LowerShape {
  const char* name;
  int64_t in_c, out_c, hw, kernel, stride, pad;
  bool quick;
};

const LowerShape kLowerShapes[] = {
    {"lower_conv3x3_8c_32x32", 8, 8, 32, 3, 1, 1, true},  // w=0.125 stage 1
    {"lower_conv3x3_16c_32x32", 16, 16, 32, 3, 1, 1, true},
    {"lower_conv3x3_64c_8x8", 64, 64, 8, 3, 1, 1, false},
    {"lower_stem_3to16_32x32", 3, 16, 32, 3, 1, 1, false},
    {"lower_pw1x1_64c_16x16", 64, 64, 16, 1, 1, 0, true},  // direct path
};

struct LowerPoint {
  const char* name;
  double pack_ms = 0.0;
  double fused_ms = 0.0;
  double materialized_ms = 0.0;
  double int8_ms = 0.0;
  int64_t fused_arena_kb = 0;
  int64_t materialized_arena_kb = 0;
  int64_t int8_arena_kb = 0;
};

/// The Conv2d forward path (fused_ms) vs the materializing path (full
/// im2col into an arena column buffer, consumed in place by the packed
/// GEMM). The 3x3 stride-1 shapes whose conv takes the direct path
/// (Conv2d::direct: up to 32 output channels, on the AVX2 and AVX-512
/// tiers) time that path in fused_ms; it builds no panels and needs no
/// arena scratch. The others time the fused im2col→panel lowering. Both
/// GEMM paths run with a pre-packed weight, so their delta is pure
/// lowering; the arena columns record the per-call scratch each path needs.
/// pack_ms times the panel builds alone: every column panel's full depth,
/// built once into one slab (the direct 1x1 path builds none).
LowerPoint bench_lowering(const LowerShape& ls, int reps) {
  Rng rng(55);
  nn::Conv2d conv(ls.in_c, ls.out_c,
                  nn::Conv2d::Options{.kernel = ls.kernel, .stride = ls.stride,
                                      .pad = ls.pad, .bias = false},
                  rng);
  const Tensor x = Tensor::randn(Shape{1, ls.in_c, ls.hw, ls.hw}, rng);
  Conv2dGeom g;
  g.in_c = ls.in_c;
  g.in_h = g.in_w = ls.hw;
  g.kernel_h = g.kernel_w = ls.kernel;
  g.stride_h = g.stride_w = ls.stride;
  g.pad_h = g.pad_w = ls.pad;
  const int64_t rows = g.col_rows(), cols = g.col_cols();

  LowerPoint p;
  p.name = ls.name;
  auto best_ms = [&](auto&& fn) {
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 8; ++i) fn();
      best = std::min(best, seconds_since(t0) / 8.0 * 1e3);
    }
    return best;
  };
  if (ls.kernel != 1 || ls.stride != 1 || ls.pad != 0) {
    std::vector<float> slab(static_cast<size_t>(rows * simd::kNR));
    p.pack_ms = best_ms([&] {
      for (int64_t j0 = 0; j0 < cols; j0 += simd::kNR) {
        const int nr =
            static_cast<int>(std::min<int64_t>(simd::kNR, cols - j0));
        im2col_pack_panel(g, x.data(), 0, rows, j0, nr, slab.data());
      }
    });
  }
  {
    // Weight panels live in their own context (a deployed engine's arena);
    // the scratch context then shows the pure per-call footprint.
    ExecutionContext weights_ctx;
    conv.prepare_inference(weights_ctx);
    ExecutionContext ctx;
    conv.forward(ctx, x, false);  // warmup (scratch growth)
    p.fused_arena_kb = ctx.arena().capacity_bytes() / 1024;
    p.fused_ms = best_ms([&] { conv.forward(ctx, x, false); });
  }
  {
    ExecutionContext ctx;
    std::vector<float> apack(
        static_cast<size_t>(packdetail::packed_a_floats(ls.out_c, rows)));
    packdetail::pack_a_rowmajor(ls.out_c, rows, conv.weight().data(), rows,
                                apack.data());
    Tensor out(Shape{1, ls.out_c, g.out_h(), g.out_w()});
    auto run_once = [&] {
      ArenaScope scope(ctx.arena());
      float* colbuf = ctx.arena().alloc(rows * cols);
      im2col(ctx, g, x.data(), colbuf);
      packdetail::run_packed_b_rowmajor(ctx.pool(), ls.out_c, cols, rows, 1.0f,
                                        apack.data(), colbuf, cols, 0.0f,
                                        out.data(), cols, GemmEpilogue{});
    };
    run_once();  // warmup
    p.materialized_arena_kb = ctx.arena().capacity_bytes() / 1024;
    p.materialized_ms = best_ms(run_once);
  }
  {
    // Quantize-on-pack: the int8 producer path must stay within the f32
    // fused lowering's scratch envelope (u8 slabs are a quarter the bytes;
    // the S/T epilogue composition adds 2 * out_c floats per call).
    nn::Conv2d qconv = conv;
    ExecutionContext cal_ctx;
    nn::quantize_for_inference(qconv, cal_ctx, x);
    ExecutionContext weights_ctx;
    qconv.prepare_inference(weights_ctx);
    ExecutionContext ctx;
    qconv.forward(ctx, x, false);  // warmup (scratch growth)
    p.int8_arena_kb = ctx.arena().capacity_bytes() / 1024;
    p.int8_ms = best_ms([&] { qconv.forward(ctx, x, false); });
  }
  return p;
}

struct ConvPoint {
  const char* name;
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
};

/// Conv+BN+ReLU block eval latency: unprepared (three passes) vs. prepared
/// (folded into one fused GEMM epilogue pass).
ConvPoint bench_fused_conv(const char* name, int64_t c, int64_t hw, int reps) {
  Rng rng(77);
  nn::Sequential seq;
  seq.emplace<nn::Conv2d>(
      c, c, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                .bias = false},
      rng);
  seq.emplace<nn::BatchNorm2d>(c);
  seq.emplace<nn::ReLU>();
  nn::Sequential fused = seq;
  ExecutionContext ctx;
  fused.prepare_inference(ctx);

  const Tensor x = Tensor::randn(Shape{1, c, hw, hw}, rng);
  ConvPoint p;
  p.name = name;
  auto time_ms = [&](nn::Sequential& model) {
    model.forward(ctx, x, false);  // warmup (arena growth)
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 8; ++i) model.forward(ctx, x, false);
      best = std::min(best, seconds_since(t0) / 8.0 * 1e3);
    }
    return best;
  };
  p.unfused_ms = time_ms(seq);
  p.fused_ms = time_ms(fused);
  return p;
}

struct TrainPoint {
  std::string name;
  double flops = 0.0;  ///< nominal arithmetic per call
  double ms = 0.0;
};

/// One training-mode layer call at protect_pipeline's shapes: forward(train)
/// or, after one forward(train), backward. Backward re-runs on the same
/// cached activations (weight gradients keep accumulating, which costs the
/// same every call).
TrainPoint bench_train(const std::string& name, nn::Layer& layer,
                       const Shape& in, bool backward, double flops,
                       int reps) {
  Rng rng(91);
  const Tensor x = Tensor::randn(in, rng);
  ExecutionContext ctx;
  const Tensor dy = Tensor::randn(layer.forward(ctx, x, true).shape(), rng);
  auto call = [&] {
    if (backward) {
      layer.backward(ctx, dy);
    } else {
      layer.forward(ctx, x, true);
    }
  };
  call();  // warmup (arena growth)
  TrainPoint p{name, flops, 1e30};
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < 8; ++i) call();
    p.ms = std::min(p.ms, seconds_since(t0) / 8.0 * 1e3);
  }
  return p;
}

/// The training section: ReLU and BN forward(train)/backward and conv3x3
/// backward at batch 8, 8 channels, 32x32 (ResNet20 w=0.125's first stage),
/// plus conv3x3 backward at 16 channels.
std::vector<TrainPoint> bench_training(int reps) {
  const int64_t b = 8, hw = 32;
  std::vector<TrainPoint> out;
  {
    const Shape s{b, 8, hw, hw};
    const double n = static_cast<double>(s.numel());
    nn::ReLU relu;
    out.push_back(bench_train("relu_train_fwd_8c_32x32", relu, s, false, n,
                              reps));
    out.push_back(bench_train("relu_train_bwd_8c_32x32", relu, s, true, n,
                              reps));
    // Two reductions and the normalize pass, about 8 flops per element each
    // way.
    nn::BatchNorm2d bn(8);
    out.push_back(bench_train("bn_train_fwd_8c_32x32", bn, s, false, 8 * n,
                              reps));
    out.push_back(bench_train("bn_train_bwd_8c_32x32", bn, s, true, 8 * n,
                              reps));
  }
  for (const int64_t c : {8, 16}) {
    Rng rng(92);
    nn::Conv2d conv(
        c, c, nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1,
                                  .bias = false},
        rng);
    // dW and dX are c * 9c * hw^2 multiply-adds each per image.
    const double flops = 2.0 * 2.0 * static_cast<double>(b * c * 9 * c * hw * hw);
    out.push_back(bench_train("conv3x3_train_bwd_" + std::to_string(c) +
                                  "c_32x32",
                              conv, Shape{b, c, hw, hw}, true, flops, reps));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-thread by default: the acceptance metric is per-core GFLOP/s.
  setenv("TBNET_THREADS", "1", /*overwrite=*/0);

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  const int reps = quick ? 3 : 7;

  ExecutionContext ctx;
  Rng rng(42);

  std::printf("{\n");
  std::printf("  \"bench\": \"kernels\",\n");
  std::printf("  \"isa\": \"%s\",\n", simd::isa_name());
  std::printf("  \"int8_isa\": \"%s\",\n", simd::int8_isa_name());
  std::printf("  \"fast_kernels\": %s,\n",
              simd::fast_kernels_enabled() ? "true" : "false");
  // Quoted so a preset empty/odd TBNET_THREADS cannot break the JSON.
  const char* threads = std::getenv("TBNET_THREADS");
  std::printf("  \"threads\": \"%s\",\n",
              threads != nullptr && *threads != '\0' ? threads : "default");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"gemm\": [\n");

  double log_speedup_sum = 0.0;
  int resnet_count = 0;
  double min_resnet_speedup = 1e30;
  struct I8Entry {
    const GemmShape* s;
    double f32_gflops;
    double i8_gflops;
  };
  std::vector<I8Entry> i8_entries;
  bool first = true;
  for (const GemmShape& s : kShapes) {
    if (quick && !s.quick) continue;
    const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    Tensor c(Shape{s.m, s.n});
    const double ref = bench_gemm(&gemm_nn_reference, ctx, s, a, b, c, reps);
    const double packed = bench_gemm(&gemm_packed_entry, ctx, s, a, b, c,
                                     reps);
    const double speedup = packed / ref;
    log_speedup_sum += std::log(speedup);
    if (std::strncmp(s.name, "resnet", 6) == 0) {
      ++resnet_count;
      min_resnet_speedup = std::min(min_resnet_speedup, speedup);
    }
    // Narrow logit heads stay f32 in the quantized engine (nn/quant.h
    // eligibility), so the dense head is not an int8 serving shape.
    if (std::strncmp(s.name, "dense_head", 10) != 0) {
      i8_entries.push_back({&s, packed, bench_int8_gemm(ctx, s, a, b, reps)});
    }
    std::printf(
        "%s    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
        "\"ref_gflops\": %.2f, \"packed_gflops\": %.2f, \"speedup\": %.2f}",
        first ? "" : ",\n", s.name, static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k), ref, packed,
        speedup);
    first = false;
  }
  int shape_count = 0;
  for (const GemmShape& s : kShapes) {
    if (!quick || s.quick) ++shape_count;
  }
  std::printf("\n  ],\n");
  std::printf("  \"geomean_speedup\": %.2f,\n",
              std::exp(log_speedup_sum / shape_count));
  std::printf("  \"min_resnet_speedup\": %.2f,\n",
              resnet_count > 0 ? min_resnet_speedup : 0.0);

  // Int8 vs f32 packed, per shape plus the geomean the acceptance gate
  // reads. "gflops" columns are GFLOP/s-equivalent: 2mnk over wall time.
  std::printf("  \"int8_gemm\": [\n");
  double i8_log_sum = 0.0;
  first = true;
  for (const I8Entry& e : i8_entries) {
    const double vs = e.i8_gflops / e.f32_gflops;
    i8_log_sum += std::log(vs);
    std::printf(
        "%s    {\"name\": \"i8_%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
        "\"f32_gflops\": %.2f, \"int8_gflops\": %.2f, \"vs_f32\": %.2f}",
        first ? "" : ",\n", e.s->name, static_cast<long long>(e.s->m),
        static_cast<long long>(e.s->n), static_cast<long long>(e.s->k),
        e.f32_gflops, e.i8_gflops, vs);
    first = false;
  }
  std::printf("\n  ],\n");
  std::printf("  \"int8_geomean_vs_f32\": %.2f,\n",
              i8_entries.empty()
                  ? 0.0
                  : std::exp(i8_log_sum /
                             static_cast<double>(i8_entries.size())));
  std::printf("  \"micro_roofline_gflops\": %.2f,\n",
              micro_roofline_gflops(reps));

  // 1/2/4-thread scaling on dedicated pools. hardware_threads is emitted so
  // the numbers are interpretable: oversubscribed pools on a small builder
  // legitimately scale at ~1.0x.
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"thread_scaling\": [\n");
  first = true;
  for (const MtShape& s : kMtShapes) {
    if (quick && !s.quick) continue;
    const Tensor a = Tensor::randn(Shape{s.m, s.k}, rng);
    const Tensor b = Tensor::randn(Shape{s.k, s.n}, rng);
    Tensor c(Shape{s.m, s.n});
    const double t1 = bench_gemm_threads(s, 1, a, b, c, reps);
    const double t2 = bench_gemm_threads(s, 2, a, b, c, reps);
    const double t4 = bench_gemm_threads(s, 4, a, b, c, reps);
    std::printf(
        "%s    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
        "\"gflops_1t\": %.2f, \"gflops_2t\": %.2f, \"gflops_4t\": %.2f, "
        "\"scaling_2t\": %.2f, \"scaling_4t\": %.2f}",
        first ? "" : ",\n", s.name, static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k), t1, t2, t4,
        t2 / t1, t4 / t1);
    first = false;
  }
  std::printf("\n  ],\n");

  // Nested parallel_for: work-stealing vs the PR-4 inline-serial path, in
  // the exact outer/inner shape the serving workers produce. speedup > 1.0
  // requires real cores; the CI job on the multi-core hosted runner gates
  // on it.
  std::printf("  \"nested_scaling\": [\n");
  {
    const int nested_threads[] = {2, 4};
    first = true;
    for (int t : nested_threads) {
      const NestedPoint p = bench_nested(t, reps);
      std::printf(
          "%s    {\"name\": \"nested_pf_%dt\", \"threads\": %d, "
          "\"inline_ms\": %.4f, \"stolen_ms\": %.4f, \"speedup\": %.2f}",
          first ? "" : ",\n", t, p.threads, p.inline_ms, p.stolen_ms,
          p.inline_ms / p.stolen_ms);
      first = false;
    }
  }
  std::printf("\n  ],\n");

  std::printf("  \"conv_lowering\": [\n");
  first = true;
  for (const LowerShape& ls : kLowerShapes) {
    if (quick && !ls.quick) continue;
    const LowerPoint p = bench_lowering(ls, reps);
    std::printf(
        "%s    {\"name\": \"%s\", \"pack_ms\": %.4f, \"fused_ms\": %.4f, "
        "\"materialized_ms\": %.4f, \"int8_ms\": %.4f, \"speedup\": %.2f, "
        "\"fused_arena_kb\": %lld, \"materialized_arena_kb\": %lld, "
        "\"int8_arena_kb\": %lld}",
        first ? "" : ",\n", p.name, p.pack_ms, p.fused_ms, p.materialized_ms,
        p.int8_ms, p.materialized_ms / p.fused_ms,
        static_cast<long long>(p.fused_arena_kb),
        static_cast<long long>(p.materialized_arena_kb),
        static_cast<long long>(p.int8_arena_kb));
    first = false;
  }
  std::printf("\n  ],\n");

  std::printf("  \"fused_conv\": [\n");
  std::vector<ConvPoint> convs;
  convs.push_back(bench_fused_conv("conv3x3_bn_relu_16c_32x32", 16, 32, reps));
  if (!quick) {
    convs.push_back(
        bench_fused_conv("conv3x3_bn_relu_64c_8x8", 64, 8, reps));
  }
  for (size_t i = 0; i < convs.size(); ++i) {
    std::printf(
        "    {\"name\": \"%s\", \"unfused_ms\": %.4f, \"fused_ms\": %.4f, "
        "\"speedup\": %.2f}%s\n",
        convs[i].name, convs[i].unfused_ms, convs[i].fused_ms,
        convs[i].unfused_ms / convs[i].fused_ms,
        i + 1 < convs.size() ? "," : "");
  }
  std::printf("  ],\n");

  // Training-mode layer calls (the protection pipeline's inner loop), emitted
  // in --quick too so CI gates them.
  std::printf("  \"training\": [\n");
  const std::vector<TrainPoint> train = bench_training(reps);
  for (size_t i = 0; i < train.size(); ++i) {
    std::printf("    {\"name\": \"%s\", \"flops\": %.0f, \"ms\": %.4f}%s\n",
                train[i].name.c_str(), train[i].flops, train[i].ms,
                i + 1 < train.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
