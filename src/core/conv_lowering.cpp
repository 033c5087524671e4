#include "core/conv_lowering.hpp"

#include <algorithm>
#include <cstring>

#include "core/gemm.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::core {

namespace {

// Contiguous accumulate span of the stride-1 col2im path; multiversioned so
// the AVX2 clone processes eight floats per add.
FLIGHTNN_SIMD_CLONES
void add_span(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] += in[i];
}

// Stride-1 row copy with padding clamp: fill out_row[0, out_w) from
// in_row[ix0, ix0 + out_w) where out-of-range source positions are zero.
inline void copy_row_stride1(const float* in_row, std::int64_t in_w,
                             std::int64_t ix0, float* out_row,
                             std::int64_t out_w) {
  const std::int64_t lo = std::max<std::int64_t>(0, -ix0);
  const std::int64_t hi = std::min(out_w, in_w - ix0);
  if (lo > 0) {
    std::memset(out_row, 0, static_cast<std::size_t>(lo) * sizeof(float));
  }
  if (hi > lo) {
    std::memcpy(out_row + lo, in_row + ix0 + lo,
                static_cast<std::size_t>(hi - lo) * sizeof(float));
  }
  if (out_w > hi) {
    const std::int64_t n = out_w - std::max(hi, lo);
    std::memset(out_row + std::max(hi, lo), 0,
                static_cast<std::size_t>(n) * sizeof(float));
  }
}

}  // namespace

std::int64_t im2col_pairs_panel(const tensor::ConvGeometry& geom) {
  const std::int64_t depth = geom.in_channels * geom.kernel * geom.kernel;
  return int_gemm_pairs(depth) * int_gemm_ld(geom.out_h() * geom.out_w()) * 2;
}

std::int64_t im2col_pairs_staged(const tensor::ConvGeometry& geom) {
  return geom.in_channels * (geom.in_h + 2 * geom.padding) *
         (geom.in_w + 2 * geom.padding);
}

// Multiversioned so the AVX2 clone vectorizes the gather: each K-pair block
// is filled from two staged rows at a time, every output position one int32
// pair store.
FLIGHTNN_SIMD_CLONES FLIGHTNN_HOT void im2col_pairs(
    const std::int16_t* staged, const tensor::ConvGeometry& geom,
    std::int16_t* panel) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  const std::int64_t out_hw = out_h * out_w;
  const std::int64_t ld = int_gemm_ld(out_hw);
  const std::int64_t depth = geom.in_channels * geom.kernel * geom.kernel;
  const std::int64_t pairs = int_gemm_pairs(depth);
  const std::int64_t hp = geom.in_h + 2 * geom.padding;
  const std::int64_t wp = geom.in_w + 2 * geom.padding;
  const std::int64_t s = geom.stride;

  // Staged top-left tap of patch row k, walked in row order: kx fastest,
  // then ky, then c (no per-row division). Row `depth` of an odd depth
  // reads nothing; its half of the last pair is zero.
  std::int64_t kx = 0, ky = 0, c = 0;
  const auto next_tap = [&] {
    const std::int16_t* t = staged + (c * hp + ky) * wp + kx;
    if (++kx == geom.kernel) {
      kx = 0;
      if (++ky == geom.kernel) {
        ky = 0;
        ++c;
      }
    }
    return t;
  };
  for (std::int64_t p = 0; p < pairs; ++p) {
    std::int16_t* block = panel + p * ld * 2;
    const std::int16_t* r0 = next_tap();
    const bool odd_tail = 2 * p + 1 == depth;
    const std::int16_t* r1 = odd_tail ? r0 : next_tap();
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      const std::int16_t* __restrict a = r0 + oy * s * wp;
      const std::int16_t* __restrict b = r1 + oy * s * wp;
      std::int16_t* __restrict d = block + oy * out_w * 2;
      if (odd_tail) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          d[2 * ox] = a[ox * s];
          d[2 * ox + 1] = 0;
        }
      } else if (s == 1) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          d[2 * ox] = a[ox];
          d[2 * ox + 1] = b[ox];
        }
      } else {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          d[2 * ox] = a[ox * s];
          d[2 * ox + 1] = b[ox * s];
        }
      }
    }
    std::fill(block + out_hw * 2, block + ld * 2, std::int16_t{0});
  }
}

void im2col_strided(const float* image, const tensor::ConvGeometry& geom,
                    float* columns, std::int64_t row_stride) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  FLIGHTNN_DCHECK(row_stride >= out_h * out_w,
                  "im2col_strided: row_stride ", row_stride,
                  " < out_hw ", out_h * out_w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    const float* plane = image + c * geom.in_h * geom.in_w;
    for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++row) {
        float* out_base = columns + row * row_stride;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          float* out_row = out_base + oy * out_w;
          const std::int64_t iy = oy * geom.stride + ky - geom.padding;
          if (iy < 0 || iy >= geom.in_h) {
            std::memset(out_row, 0,
                        static_cast<std::size_t>(out_w) * sizeof(float));
            continue;
          }
          const float* in_row = plane + iy * geom.in_w;
          if (geom.stride == 1) {
            copy_row_stride1(in_row, geom.in_w, kx - geom.padding, out_row,
                             out_w);
          } else {
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              const std::int64_t ix = ox * geom.stride + kx - geom.padding;
              out_row[ox] = (ix >= 0 && ix < geom.in_w) ? in_row[ix] : 0.0F;
            }
          }
        }
      }
    }
  }
}

void col2im_strided(const float* columns, std::int64_t row_stride,
                    const tensor::ConvGeometry& geom, float* image) {
  const std::int64_t out_h = geom.out_h();
  const std::int64_t out_w = geom.out_w();
  FLIGHTNN_DCHECK(row_stride >= out_h * out_w,
                  "col2im_strided: row_stride ", row_stride,
                  " < out_hw ", out_h * out_w);
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < geom.in_channels; ++c) {
    float* plane = image + c * geom.in_h * geom.in_w;
    for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++row) {
        const float* in_base = columns + row * row_stride;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const float* in_row = in_base + oy * out_w;
          const std::int64_t iy = oy * geom.stride + ky - geom.padding;
          if (iy < 0 || iy >= geom.in_h) continue;
          float* out_row = plane + iy * geom.in_w;
          if (geom.stride == 1) {
            const std::int64_t ix0 = kx - geom.padding;
            const std::int64_t lo = std::max<std::int64_t>(0, -ix0);
            const std::int64_t hi = std::min(out_w, geom.in_w - ix0);
            if (hi > lo) add_span(in_row + lo, out_row + ix0 + lo, hi - lo);
          } else {
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              const std::int64_t ix = ox * geom.stride + kx - geom.padding;
              if (ix >= 0 && ix < geom.in_w) out_row[ix] += in_row[ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace flightnn::core
