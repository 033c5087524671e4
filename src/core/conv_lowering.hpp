#pragma once

// Patch-matrix lowering for the GEMM training fast path (DESIGN.md §10).
//
// These are the fast-path counterparts of tensor::im2col / tensor::col2im.
// Two differences justify the separate entry points:
//
//   1. A `row_stride` parameter decouples the patch-row pitch from one
//      image's out_h*out_w, so several images can be lowered side by side
//      into one [patch_size, group*out_hw] matrix. Conv2d then runs a
//      single blocked GEMM over the whole group instead of one small GEMM
//      per image, which is where the batched fast path gets its
//      throughput (the per-image GEMMs of the Table-1 networks are too
//      small to reach the core's peak).
//   2. A stride-1 specialization (every conv in the Table-1 networks)
//      turns the inner gather into memcpy of contiguous spans plus edge
//      zeroing, instead of a bounds check per element.
//
// The naive tensor:: versions stay untouched: they are the differential
// oracles the fast path is tested against, so they must keep the seed's
// exact behavior. Both lowerings are pure per-element moves -- no
// accumulation across threads -- so using them inside parallel loops keeps
// the training step bit-identical at any thread count.

#include <cstdint>

#include "tensor/ops.hpp"

namespace flightnn::core {

// Scatter one image [C, in_h, in_w] into patch-matrix rows: element
// (p, j) of the logical [patch_size, out_hw] block lands at
// columns[p * row_stride + j]. `columns` points at the block's (0, 0);
// callers lowering a group of images pass the same base plus an out_hw
// column offset per image. Requires row_stride >= out_h*out_w.
void im2col_strided(const float* image, const tensor::ConvGeometry& geom,
                    float* columns, std::int64_t row_stride);

// Adjoint of im2col_strided: accumulate patch-matrix rows back into the
// image (`image` must be zero-initialized or hold a partial sum).
void col2im_strided(const float* columns, std::int64_t row_stride,
                    const tensor::ConvGeometry& geom, float* image);

// Lower one quantized image into the K-pair packed int16 activation panel
// of core::int_gemm (gemm.hpp): x(k, j) for patch row k = (c * K + ky) * K
// + kx -- the OIHW element order of a shift plan -- and output position
// j = oy * out_w + ox. The image arrives already staged: `staged` holds the
// int16 codes [C, in_h, in_w] with a zero border of `padding` on every side
// (im2col_pairs_staged(geom) elements, code (c, y, x) at
// (c * (in_h + 2p) + y + p) * (in_w + 2p) + x + p), so the lowering is a
// pure gather with no bounds checks. Taps of the padding border, the second
// row of an odd-depth final pair and the padding columns [out_hw, ld) come
// out zero. `panel` holds im2col_pairs_panel(geom) elements:
// int_gemm_pairs(C*K*K) * int_gemm_ld(out_hw) * 2.
void im2col_pairs(const std::int16_t* staged, const tensor::ConvGeometry& geom,
                  std::int16_t* panel);
std::int64_t im2col_pairs_panel(const tensor::ConvGeometry& geom);
std::int64_t im2col_pairs_staged(const tensor::ConvGeometry& geom);

}  // namespace flightnn::core
