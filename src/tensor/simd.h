#pragma once
// simd.h — the CPU microkernel layer under the packed GEMM.
//
// One 6x16 register-tiled microkernel, three implementations:
//   * AVX2+FMA  — compiled with a function target attribute so the library
//     still builds with baseline -O2 flags; selected at runtime only when
//     __builtin_cpu_supports confirms the host has both extensions.
//   * NEON      — aarch64 builds (NEON is architecturally guaranteed there).
//   * scalar    — portable fallback: plain multiply-add, so each element's
//     chain is the scalar reference GEMMs' (gemm.h). Also the shape every
//     other kernel's numerics are documented against.
//
// The tile is MR=6 rows x NR=16 columns: on AVX2 that is 12 ymm accumulators
// plus two B vectors and one A broadcast, which exactly fits the 16-register
// file with no spills. Panels are packed (pack.h) so the p-loop reads both
// operands contiguously.
//
// Determinism contract: for a given element C[i,j] the accumulation is a
// single FMA chain in k order, independent of how the driver partitions rows,
// columns, or threads. Edge tiles (mr < MR, nr < NR) run the same vector
// accumulation over zero-padded panels and finalize scalar-side with
// std::fmaf, which rounds identically to the vector FMA — so a row's bits do
// not depend on the batch size that surrounded it (the serving tests assert
// batched == per-image bit-for-bit).
//
// Beside the GEMM the dispatch holds the int8 kernels, the masked-row panel
// builder and the direct 3x3 convolution (direct_conv3x3, AVX2 and AVX-512
// only), each documented with its determinism contract below.
//
// TBNET_DETERMINISTIC=1 decides one thing: the dispatch selects the scalar
// tier for every kernel table (f32, int8, no wide tile, no masked-row
// panels, no direct conv). Everything above the dispatch
// (packing, BN folding, fusion) runs unchanged, so the pin is the path a
// host without AVX2+FMA or NEON runs, with bits that do not depend on the
// host's vector ISA.

#include <cmath>
#include <cstdint>

namespace tbnet::simd {

/// Microkernel tile: MR rows of C by NR columns.
inline constexpr int kMR = 6;
inline constexpr int kNR = 16;

/// Alignment (bytes) of packed panels and arena scratch: one cache line,
/// enough for any current vector ISA.
inline constexpr int64_t kAlign = 64;

enum class Isa { kScalar, kAvx2, kNeon, kAvx512 };

/// The instruction set the runtime dispatch selected (decided once).
Isa active_isa();
const char* isa_name();

/// The int8 kernel tier selected for this host ("avx512-vnni", "avx-vnni",
/// "avx2-maddubs", or "scalar") — reported independently of isa_name()
/// because the f32 and int8 ladders probe different CPU features.
const char* int8_isa_name();

/// False when TBNET_DETERMINISTIC=1, which makes the dispatch select the
/// scalar tier. Latched on first use. Only the dispatch consults it; code
/// above it runs one path in both modes (tools/tbnet_lint.py, kernel-pin).
bool fast_kernels_enabled();

/// Fused activation applied as the last step of a GEMM epilogue.
enum class Act : uint8_t { kNone = 0, kReLU = 1 };

/// True for the Act values the kernels implement. Epilogue builders validate
/// with this BEFORE entering a hot loop: the per-element application below is
/// an explicit dispatch, so an unknown value (a future enum member reaching
/// an old kernel) must be rejected at the boundary rather than silently
/// clamped as ReLU.
constexpr bool act_known(Act act) {
  return act == Act::kNone || act == Act::kReLU;
}

/// Throws std::invalid_argument for values act_known rejects.
void require_known_act(Act act);

/// Scalar activation application shared by the GEMM epilogue finalizers —
/// the single place the Act semantics live. Explicit per-value dispatch;
/// callers guarantee act_known(act) (require_known_act at the call
/// boundary).
inline float apply_act(float v, Act act) {
  switch (act) {
    case Act::kNone:
      return v;
    case Act::kReLU:
      return v > 0.0f ? v : 0.0f;
  }
  return v;  // unreachable when the boundary validated act_known
}

/// Per-tile epilogue view. Pointers are pre-offset to the tile origin by the
/// driver; nullptr means identity (scale 1 / shift 0). Applied as
///   v = v * row_scale[i] + row_shift[i]
///   v = v + col_shift[j]
///   v = act(v)
/// after the alpha/beta update. Row epilogues serve conv (C rows = output
/// channels); the column shift serves dense (C columns = output features).
struct TileEpilogue {
  const float* row_scale = nullptr;
  const float* row_shift = nullptr;
  const float* col_shift = nullptr;
  Act act = Act::kNone;
};

/// Computes one C tile from an A panel and a B slab:
///   C[i,j] = ep(alpha * sum_p A[p][i] * B[p][j] + beta * C[i,j])
/// A panel layout: [kc][kMR] (column i = C row), zero-padded to full width.
/// The B operand is kNR consecutive floats per k row with row stride
/// `bstride` — either a packed zero-padded panel (bstride == kNR) or, for
/// full tiles, a row-major B matrix read in place (bstride == ldb), which is
/// what lets gemm_nn and the conv hot path skip packing the im2col buffer
/// entirely. Full-width reads must be in bounds for all kc rows. `beta == 0`
/// must not read C. `ep` may be nullptr (no epilogue; used for all but the
/// last k-block).
using MicroKernelFn = void (*)(int64_t kc, const float* a_panel,
                               const float* b_panel, int64_t bstride, float* c,
                               int64_t ldc, int mr, int nr, float alpha,
                               float beta, const TileEpilogue* ep);

/// The dispatched microkernel for this host.
MicroKernelFn micro_kernel();

/// Specialization for single-row tiles (mr == 1): computes only C row 0 with
/// the identical per-lane FMA chain, so its bits match the general kernel's
/// row 0 exactly while skipping the 5 padded rows' work. Drivers use it for
/// m == 1 GEMMs (single-image dense heads). Falls back to the general kernel
/// on ISAs without a dedicated variant.
MicroKernelFn micro_kernel_mr1();

/// Double-width f32 tile (kMR x 2*kNR) for AVX-512 hosts: consumes TWO
/// adjacent 16-column B panels per call (b0/b1 with independent row strides,
/// covering C columns [j, j+16) and [j+16, j+32)) and keeps 12 zmm
/// accumulators live, doubling FMA width per k iteration. Each C element's
/// accumulation is the same single FMA chain in k order as micro_kernel(),
/// and the epilogue applies the same per-element operations, so the bits are
/// identical to two 16-wide calls — drivers switch tile width freely without
/// changing results. Both panels must be full width (nr == kNR each; `ep`
/// column arrays, when set, must cover 32 columns from the tile origin).
/// Returns nullptr unless the host has AVX-512F and the scalar tier is not
/// pinned.
using MicroKernelWideFn = void (*)(int64_t kc, const float* a_panel,
                                   const float* b0, int64_t bstride0,
                                   const float* b1, int64_t bstride1, float* c,
                                   int64_t ldc, int mr, float alpha, float beta,
                                   const TileEpilogue* ep);
MicroKernelWideFn micro_kernel_wide();

// ---------------------------------------------------------------- int8 ----
//
// Quantized GEMM microkernels: s8 weights x u8 activations with i32
// accumulation and a fused dequantize+affine+activation epilogue. Operands
// are packed in groups of kKG = 4 consecutive k values so one 32-bit lane
// holds a dot-product quad (the shape vpdpbusd / pmaddubsw consume):
//   A panel: [ceil(kc/4)][kMR][4] int8  — 4 k-taps per C row per group;
//   B panel: [ceil(kc/4)][kNR][4] uint8 — 4 k-taps per C column per group.
// Zero padding (rows past m, k past the real depth) contributes exactly 0.
//
// Exactness contract: activations quantize to [0, 127] (u7) and weights to
// [-127, 127], so a pmaddubsw pair sum is at most 2*127*127 = 32258 < 2^15 —
// the i16 intermediate never saturates and every tier's i32 accumulator
// holds the exact integer dot product. The epilogue computes
//   C[i][j] = act(fmaf((float)acc, scale[i], shift[i]))
// per element; (float)acc and _mm256_cvtepi32_ps round identically
// (nearest-even), as do fmaf and vfmadd, so the scalar reference, the AVX2
// maddubs tier, and both VNNI tiers produce bit-identical C — the int8 path
// is deterministic across ISAs, thread counts, and TBNET_DETERMINISTIC.

/// k-group width of the int8 panel formats.
inline constexpr int kKG = 4;

/// Per-row dequantization epilogue for the int8 kernels. `scale`/`shift`
/// are pre-offset to the tile's first row and never null (the driver always
/// composes weight scale x activation scale x any folded BN/bias affine).
struct QuantEpilogue {
  const float* scale = nullptr;
  const float* shift = nullptr;
  Act act = Act::kNone;
};

/// Computes one C tile from int8 panels: kg k-groups (kg = ceil(kc / kKG)),
/// then the QuantEpilogue; C is written (never read). `b_panel` stride is
/// implied by the packed layout (kNR * kKG bytes per group).
using MicroKernelI8Fn = void (*)(int64_t kg, const int8_t* a_panel,
                                 const uint8_t* b_panel, float* c, int64_t ldc,
                                 int mr, int nr, const QuantEpilogue& ep);

/// The canonical activation quantizer: u7 affine with round-to-nearest-even
/// (lrintf compiles to cvtss2si under the default rounding mode). EVERY
/// producer that quantizes activations into B panels must use this exact
/// expression — the int8 path's bit-determinism rests on all sites rounding
/// identically. Spatial conv padding quantizes 0.0f to zero_point, which the
/// driver's zp-correction term cancels exactly.
inline uint8_t quantize_u7(float x, float inv_scale, int32_t zero_point) {
  int32_t q = static_cast<int32_t>(lrintf(x * inv_scale)) + zero_point;
  q = q < 0 ? 0 : q;
  return static_cast<uint8_t>(q > 127 ? 127 : q);
}

/// Bulk form of quantize_u7 for one full B panel k-group: writes the 64-byte
/// grouped block grp[j * kKG + t] = quantize_u7(row_t[j], ...) for j in
/// [0, kNR), t in [0, kKG). Each row pointer must cover kNR readable floats.
/// Every tier (scalar / AVX2 / AVX-512) rounds exactly like quantize_u7 for
/// inputs whose scaled value stays inside i32 (guaranteed by calibrated
/// scales), so panel bytes do not depend on the tier; the scalar form is
/// what TBNET_DETERMINISTIC=1 selects. Producers use this for
/// full groups and fall back to per-element quantize_u7 at k / column tails.
using QuantizeU7GroupFn = void (*)(const float* r0, const float* r1,
                                   const float* r2, const float* r3,
                                   uint8_t* grp, float inv_scale,
                                   int32_t zero_point);
QuantizeU7GroupFn quantize_u7_group();

/// The dispatched int8 microkernel for this host (VNNI > maddubs > scalar).
MicroKernelI8Fn micro_kernel_i8();

/// The scalar int8 reference kernel — what TBNET_DETERMINISTIC=1 selects,
/// and the parity oracle the SIMD tiers are tested against (bits must match).
MicroKernelI8Fn micro_kernel_i8_reference();

/// SIMD dot product (FMA chains; lane order fixed per ISA). Backs the
/// n < kNR gemm_nt path.
float dot(const float* a, const float* b, int64_t n);

// -------------------------------------------------------- conv lowering ----
//
// Masked-row panel build for stride-1 conv lowering (im2col_pack_panel). A
// [kc x kNR] B panel covers output columns [j0, j0 + nr); they split into at
// most kNR output-row segments. im2col.cpp plans a panel once:
//   * per segment, the input row its taps start from (oy*stride_h - pad_h);
//   * per kw and segment, the panel lanes whose input column lies inside
//     the row, and the input column of the first of them.
// The row kernel then walks the panel's taps (c, kh, kw) in column-matrix
// order. Each tap is one register: every segment whose input row is in
// range loads its lanes with one masked load that starts at its first
// in-bounds element (an expand-load on AVX-512, two 8-lane maskloads plus a
// lane shift on AVX2), the segments merge into the same register, and the
// register is stored whole. Masked-off lanes read nothing and no pointer
// outside the image is formed. The bytes are exactly the clamped copy's:
// every lane is either a copied input element or +0.0f.

/// A panel plan (built by im2col.cpp, read by the row kernel). Lanes past
/// nr belong to no segment, so they are always zero.
struct MaskedPanelPlan {
  /// Widest kernel a plan holds; wider kernels take the clamped copy.
  static constexpr int kMaxKernelW = kNR;
  int64_t in_h = 0, in_w = 0, kernel_h = 0, kernel_w = 0;
  int nseg = 0;
  int64_t iy0[kNR];                    ///< per segment: input row at kh = 0
  uint16_t mask[kMaxKernelW][kNR];     ///< per kw, segment: in-bounds lanes
  int64_t col[kMaxKernelW][kNR];       ///< input column of the first of them
};

/// Tap cursor of a panel walk: the channel plane and (kh, kw) of the next
/// column-matrix row. Row builders advance it past the rows they emit.
struct PanelTap {
  const float* plane = nullptr;
  int64_t kh = 0, kw = 0;

  /// Steps to the next column-matrix row; true when kh changed.
  bool advance(int64_t kernel_h, int64_t kernel_w, int64_t plane_size) {
    if (++kw < kernel_w) return false;
    kw = 0;
    if (++kh == kernel_h) {
      kh = 0;
      plane += plane_size;
    }
    return true;
  }
};

/// Emits `rows` panel rows from `tap` on, row p at out + p * kNR, and
/// advances `tap`.
using MaskedRowsFn = void (*)(const MaskedPanelPlan& plan, PanelTap& tap,
                              int64_t rows, float* out);

/// The masked-row kernel for this host, or nullptr on the scalar and NEON
/// tiers, pinned or not (they keep the clamped copy). Decided once, like
/// micro_kernel.
MaskedRowsFn masked_rows_kernel();

// ---------------------------------------------------- direct 3x3 conv ----
//
// Direct convolution for 3x3, stride-1, pad-1 f32 planes (nn::Conv2d picks
// it: see conv2d.h for the rule). It reads the image, the weights and, for
// the gradients, dy in place: nothing is lowered, packed or scattered.
//
// A tile is kV consecutive output pixels of the flattened plane (kV = 16 on
// AVX-512, 8 on AVX2), so a tile may span several short rows. Tap (ky, kx)
// of a tile is one masked load at a constant offset from the tile, because
// at stride 1 input pixel = output pixel + (ky - 1) * w + (kx - 1). Lanes
// whose tap falls in the padding are masked off: they read nothing and hold
// +0.0f, which the FMA multiplies like any other tap. Where the first lane
// would address before the plane, the load starts at the first in-bounds
// lane and a permute moves the values into place, so no pointer outside the
// plane is formed.
//
// Forward determinism contract: each output element is ONE FMA chain that
// starts from +0.0f and runs over (c, ky, kx) in order, then takes the GEMM
// epilogue (v = fma(row_scale, v, row_shift) when either is set, then ReLU
// by max). That is the packed GEMM's per-element chain when the whole depth
// in_c * 9 fits one packdetail::kBlockK slice, so the two paths agree bit
// for bit on both tiers, padded taps included (a +Inf weight times a padded
// +0.0f is NaN on both). Work splits into units (a block of output channels
// by a block of tiles); a unit runs every image, and no element's chain
// depends on the split or on the unit's block sizes.
//
// Weight-gradient contract: unit (output-channel block, c, ky) sums
// dy[o] * x[c] shifted by (ky, kx) over the batch and the plane in a fixed
// order (tile chunk, image, tile, then a fixed lane tree), and adds each
// sum into dw once. The order is fixed per tier, not across tiers.
//
// Null on the scalar and NEON tiers and under TBNET_DETERMINISTIC=1, so
// those keep the GEMM path.

/// One direct convolution: y[i, o] = ep(sum_{c, t} w(o, c, t) * x[i, c]
/// shifted by tap t), every plane height x width. Tap t = ky * 3 + kx of
/// (o, c) is w[o * w_out + c * w_in + t * w_tap]: the forward reads the
/// [out_c, in_c, 3, 3] weight as is; dX reads it transposed and flipped.
struct Conv3x3Args {
  const float* x = nullptr;  ///< [n, in_c, height, width]
  float* y = nullptr;        ///< [n, out_c, height, width], written
  const float* w = nullptr;
  int64_t w_out = 0, w_in = 0, w_tap = 1;
  int64_t n = 0, in_c = 0, out_c = 0, height = 0, width = 0;
  const float* row_scale = nullptr;  ///< [out_c] or nullptr (see contract)
  const float* row_shift = nullptr;  ///< [out_c] or nullptr
  Act act = Act::kNone;
};

/// One weight gradient: dw[o, c, ky, kx] += sum over images and pixels of
/// dy[i, o] * x[i, c] shifted by (ky, kx).
struct Conv3x3GradArgs {
  const float* x = nullptr;   ///< [n, in_c, height, width]
  const float* dy = nullptr;  ///< [n, out_c, height, width]
  float* dw = nullptr;        ///< [out_c, in_c, 3, 3], accumulated into
  int64_t n = 0, in_c = 0, out_c = 0, height = 0, width = 0;
};

/// One tier's direct kernels. `*_units` count a call's work units (a pure
/// function of the shape); the runners compute units [u0, u1) and may run
/// concurrently on disjoint ranges. They allocate nothing.
struct DirectConv3x3 {
  int64_t (*forward_units)(const Conv3x3Args& a);
  void (*forward)(const Conv3x3Args& a, int64_t u0, int64_t u1);
  int64_t (*weight_grad_units)(const Conv3x3GradArgs& a);
  void (*weight_grad)(const Conv3x3GradArgs& a, int64_t u0, int64_t u1);
};

/// The direct kernels for this host, or nullptr (scalar, NEON, pinned).
const DirectConv3x3* direct_conv3x3();

/// Test hook: the direct kernels of tier `isa` (kAvx2 or kAvx512) when the
/// host supports it, pinned or not, else nullptr. Lets one host check every
/// tier it can run, although the dispatch picks one per process.
const DirectConv3x3* direct_conv3x3_for(Isa isa);

}  // namespace tbnet::simd
