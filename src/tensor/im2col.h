#pragma once
// im2col / col2im lowering for 2-D convolution on the packed GEMM.
//
// A GEMM conv's forward is  W[outC, inC*kh*kw] x cols[inC*kh*kw, oh*ow]  per
// image, fed panel by panel (im2col_pack_panel) so the column matrix never
// exists; its backward lowers whole images (im2col for dW) and scatters the
// column gradient back (col2im for dX). The 3x3 stride-1 convs that
// nn::Conv2d::direct picks run direct instead (simd::direct_conv3x3) and
// use none of this.

#include <cstdint>

#include "tensor/execution_context.h"

namespace tbnet {

/// Parameters of a 2-D convolution / pooling window over a CHW image.
struct Conv2dGeom {
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t kernel_h = 1, kernel_w = 1;
  int64_t stride_h = 1, stride_w = 1;
  int64_t pad_h = 0, pad_w = 0;

  int64_t out_h() const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the column matrix: in_c * kernel_h * kernel_w.
  int64_t col_rows() const { return in_c * kernel_h * kernel_w; }
  /// Columns of the column matrix: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
};

/// Expands `image` (CHW, geom.in_c x geom.in_h x geom.in_w) into `cols`
/// ([col_rows x col_cols], caller-allocated). Out-of-bounds taps read 0.
/// Each tap checks its bounds once and fills every output row with one
/// clamped copy. The context form shards the (independent) column-matrix
/// rows on ctx.pool(); output is identical to the serial form.
void im2col(const ExecutionContext& ctx, const Conv2dGeom& geom,
            const float* image, float* cols);
void im2col(const Conv2dGeom& geom, const float* image, float* cols);

/// Adjoint of im2col: accumulates `cols` back into `image` (caller must
/// zero-init `image`). Row-wise like im2col; every image element receives
/// its additions in (column-matrix row, output row) order.
void col2im(const Conv2dGeom& geom, const float* cols, float* image);

/// Fused im2col → panel lowering: writes the [kc x nr] slab of the column
/// matrix covering rows [kk, kk+kc) and columns [j0, j0+nr) straight from
/// the CHW `image` into `panel` (layout [kc][simd::kNR], columns
/// [nr, kNR) zero-filled). Feeding these panels to the packed GEMM
/// driver (packdetail::run_packed_b_producer) computes a convolution without
/// ever materializing the column matrix; the values written are exactly the
/// ones im2col would place at the same (row, col) positions, so the result
/// is bit-identical to the materializing path. Pure function of its
/// arguments — safe to call concurrently for disjoint panels; allocates
/// nothing. `nr` must not exceed simd::kNR (one microkernel panel, the only
/// width the packed driver requests).
///
/// Stride-1 columns on the AVX2 and AVX-512 tiers plan the panel once and
/// emit each row as one masked-load register (simd::masked_rows_kernel).
/// Strided columns, kernels wider than simd::MaskedPanelPlan::kMaxKernelW,
/// and the scalar and NEON tiers take a clamped copy per row and segment.
/// Both write the same bytes.
void im2col_pack_panel(const Conv2dGeom& geom, const float* image, int64_t kk,
                       int64_t kc, int64_t j0, int nr, float* panel);

/// Quantize-on-pack variant for the int8 path: the same [kc x nr] column
/// slab, but quantized to u7 (simd::quantize_u7 with inv_scale/zero_point)
/// and written in the grouped int8 B-panel layout packdetail::PanelProducerU8
/// documents. The panel is planned once; its rows are built (by the same
/// two paths as im2col_pack_panel) one k-group at a time into a kKG x kNR
/// stack staging tile, so the f32 intermediate never exists beyond it and
/// the zero-materialization property carries over to the quantized path.
/// Taps past kc and columns past nr are written as 0 (the packed weights are
/// zero there, so they contribute nothing). Pure function of its arguments,
/// like im2col_pack_panel.
void im2col_pack_panel_u8(const Conv2dGeom& geom, const float* image,
                          int64_t kk, int64_t kc, int64_t j0, int nr,
                          float inv_scale, int32_t zero_point, uint8_t* panel);

}  // namespace tbnet
