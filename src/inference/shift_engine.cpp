#include "inference/shift_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/conv_lowering.hpp"
#include "core/decompose.hpp"
#include "core/gemm.hpp"
#include "runtime/scratch_arena.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace flightnn::inference {

namespace {

// Accumulators hold values scaled by 2^(scale_exp + e_min); anything nearing
// the int64 ceiling means a shift went wrong, not a big activation.
constexpr std::int64_t kAccumulatorGuard = kShiftAccumulatorGuard;

// Shared engine-construction invariants: the decomposition's terms must
// address real filters, carry full-size element vectors, and hold exponents
// inside the barrel shifter's budget. A violation here means the quantizer
// and the engine disagree about the datapath.
void validate_decomposition(const core::Decomposition& decomposition,
                            std::int64_t filters, std::int64_t elements,
                            const quant::Pow2Config& config, const char* what) {
  FLIGHTNN_CHECK(
      static_cast<std::int64_t>(decomposition.filter_k.size()) == filters, what,
      ": decomposition covers ", decomposition.filter_k.size(),
      " filters, weights have ", filters);
  FLIGHTNN_CHECK(decomposition.elements_per_filter == elements, what,
                 ": decomposition elements per filter ",
                 decomposition.elements_per_filter, ", weights have ", elements);
  for (const auto& term : decomposition.terms) {
    FLIGHTNN_CHECK(term.filter >= 0 && term.filter < filters, what,
                   ": term filter index ", term.filter, " outside [0, ",
                   filters, ")");
    FLIGHTNN_CHECK(
        static_cast<std::int64_t>(term.elements.size()) == elements, what,
        ": term has ", term.elements.size(), " elements, expected ", elements);
    for (const auto& element : term.elements) {
      if (element.sign == 0) continue;
      FLIGHTNN_CHECK(element.exponent >= config.e_min &&
                         element.exponent <= config.e_max,
                     what, ": term exponent ",
                     static_cast<int>(element.exponent), " outside [",
                     config.e_min, ", ", config.e_max, "]");
    }
  }
}

// Largest input magnitude (fallback when QuantizedActivations::max_abs was
// not populated at quantize time).
std::int64_t max_abs_value(const std::vector<std::int32_t>& values) {
  std::int64_t max_abs = 0;
  for (const std::int32_t v : values) {
    const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
    if (a > max_abs) max_abs = a;
  }
  return max_abs;
}

// Run-time contract shared by both engines: activations must fit the int16
// panels, and no accumulation may leave int64. Every partial sum of a row is
// bounded by max|q| * max_gain (the gain sums absolute contributions), so
// one check per run covers every accumulate of both GEMM routes. Properly
// quantized inputs (bits <= 16) always pass; hand-built activations or a
// hostile plan whose gain saturates get a typed error instead of UB.
constexpr std::int64_t kInt16Max = 0x7fff;
void check_accumulator_range(std::int64_t amax, std::int64_t max_gain,
                             const char* what) {
  FLIGHTNN_CHECK(amax <= kInt16Max, what, ": activation magnitude ", amax,
                 " does not fit int16");
  FLIGHTNN_CHECK(max_gain < kAccumulatorGuard &&
                     (max_gain == 0 || amax <= (kAccumulatorGuard - 1) / max_gain),
                 what, ": accumulator could overflow (gain ", max_gain,
                 ", max |q| ", amax, ")");
}

// Structural invariants shared by the plan-adopting constructors: stream
// sizes consistent, filter_begin a monotone prefix from 0 to entries(), so
// every entry lies in exactly one filter's range. build_panel validates each
// entry it walks (bounds, sign, shift range); this re-checks only what is
// O(filters), so a corrupted adoption fails fast instead of indexing wild.
void check_adopted_plan(const ShiftPlan& plan, std::int64_t filters,
                        const char* what) {
  FLIGHTNN_CHECK(plan.filters == filters, what, ": plan covers ", plan.filters,
                 " filters, spec says ", filters);
  FLIGHTNN_CHECK(static_cast<std::int64_t>(plan.filter_begin.size()) ==
                     filters + 1,
                 what, ": filter_begin has ", plan.filter_begin.size(),
                 " entries, expected ", filters + 1);
  const auto entries = static_cast<std::size_t>(plan.entries());
  FLIGHTNN_CHECK(plan.shift.size() == entries && plan.sign.size() == entries,
                 what, ": shift/sign streams do not match the entry count");
  FLIGHTNN_CHECK(plan.filter_begin.front() == 0 &&
                     plan.filter_begin.back() == plan.entries(),
                 what, ": filter_begin does not span the entry stream");
  for (std::size_t f = 1; f < plan.filter_begin.size(); ++f) {
    FLIGHTNN_CHECK(plan.filter_begin[f - 1] <= plan.filter_begin[f], what,
                   ": filter_begin not monotone at filter ", f);
  }
}

// Geometry of a weights-built engine, read off the weight tensor.
ShiftConvSpec conv_spec(const tensor::Shape& s, std::int64_t stride,
                        std::int64_t padding) {
  FLIGHTNN_CHECK(s.rank() == 4, "ShiftConv2d: OIHW weights required, got ",
                 s.to_string());
  return ShiftConvSpec{s[0], s[1], s[2], stride, padding};
}

ShiftLinearSpec linear_spec(const tensor::Shape& s) {
  FLIGHTNN_CHECK(s.rank() == 2, "ShiftLinear: [out, in] weights required, got ",
                 s.to_string());
  return ShiftLinearSpec{s[0], s[1]};
}

// Integer division helpers for the valid-range arithmetic; both require
// b > 0 and round the true quotient toward -inf / +inf.
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return a > 0 ? (a + b - 1) / b : a / b;
}

// Number of output positions o in [0, out_n) whose input index
// o*stride + k - padding lands inside [0, in_n). This is the closed form of
// the guarded path's per-position bounds check, used for the analytic op
// census (one accumulate per valid position per entry).
std::int64_t valid_positions(std::int64_t k, std::int64_t out_n,
                             std::int64_t in_n, std::int64_t stride,
                             std::int64_t padding) {
  const std::int64_t lo = std::max<std::int64_t>(0, ceil_div(padding - k, stride));
  const std::int64_t hi =
      std::min(out_n - 1, floor_div(in_n - 1 + padding - k, stride));
  return hi >= lo ? hi - lo + 1 : 0;
}

// Narrow (int32) accumulation bound: |any partial sum| <= max|q| * gain (the
// gain sums absolute contributions), so when the product fits int32 the
// whole accumulation can run in 32-bit lanes without any value differing
// from the int64 computation. Each vpmaddwd pair sum and each packed weight
// (|w| <= gain) is one such partial sum.
constexpr std::int64_t kNarrowMax = 0x7fffffff;
bool narrow_bound_ok(std::int64_t max_gain, std::int64_t amax) {
  return max_gain <= kNarrowMax &&
         (max_gain == 0 || amax <= kNarrowMax / max_gain);
}

// Pack a structurally checked plan into its GEMM weight panel (see
// ShiftPanel). Two passes over each live filter's entries -- one to find the
// widest summed weight and the worst-case gain, one to write the panel -- so
// the only allocation is the panel itself plus one depth-long row. Entries
// are validated here, not trusted: a hostile plan gets a CheckFailure, never
// a wild index or an overflowing shift.
FLIGHTNN_COLD_ALLOC ShiftPanel build_panel(const ShiftPlan& plan,
                                           std::int64_t depth,
                                           const char* what) {
  ShiftPanel panel;
  panel.pairs = core::int_gemm_pairs(depth);
  for (std::int64_t f = 0; f < plan.filters; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    const bool pruned = plan.filter_begin[fi] == plan.filter_begin[fi + 1];
    (pruned ? panel.pruned : panel.rows).push_back(static_cast<std::int32_t>(f));
  }
  // Summed weights of one filter, saturated at the accumulator guard: a
  // saturated weight implies a saturated gain, which run() rejects before
  // any arithmetic. Returns the filter's gain, sum of 2^shift over its
  // entries with the same saturation: |accumulator| <= max|q| * gain bounds
  // every partial sum of the row.
  std::vector<std::int64_t> row(static_cast<std::size_t>(depth));
  const auto sum_row = [&](std::int32_t f) {
    std::fill(row.begin(), row.end(), std::int64_t{0});
    std::int64_t gain = 0;
    const auto fi = static_cast<std::size_t>(f);
    for (std::int64_t e = plan.filter_begin[fi]; e < plan.filter_begin[fi + 1];
         ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const std::int64_t element = plan.element[ei];
      const int shift = plan.shift[ei];
      const int sign = plan.sign[ei];
      FLIGHTNN_CHECK(element >= 0 && element < depth, what, ": entry ", e,
                     " element ", element, " outside [0, ", depth, ")");
      FLIGHTNN_CHECK(shift >= 0 && shift < 62 && (sign == 1 || sign == -1),
                     what, ": entry ", e, " has shift ", shift, " / sign ",
                     sign);
      const std::int64_t step = std::int64_t{1} << shift;
      std::int64_t& w = row[static_cast<std::size_t>(element)];
      w = std::clamp(w + sign * step, -kAccumulatorGuard, kAccumulatorGuard);
      gain = gain > kAccumulatorGuard - step ? kAccumulatorGuard : gain + step;
    }
    return gain;
  };
  std::int64_t widest = 0;
  for (const std::int32_t f : panel.rows) {
    panel.max_gain = std::max(panel.max_gain, sum_row(f));
    for (const std::int64_t w : row) widest = std::max(widest, std::abs(w));
  }
  const auto live = static_cast<std::int64_t>(panel.rows.size());
  const auto size = static_cast<std::size_t>(
      core::int_gemm_padded_rows(live) * panel.pairs * 2);
  const bool narrow = widest <= kInt16Max;
  if (narrow) {
    panel.w16.assign(size, 0);
  } else {
    panel.w64.assign(size, 0);
  }
  for (std::int64_t r = 0; r < live; ++r) {
    sum_row(panel.rows[static_cast<std::size_t>(r)]);
    for (std::int64_t k = 0; k < depth; ++k) {
      const auto at =
          static_cast<std::size_t>(core::int_gemm_weight_index(r, k, panel.pairs));
      const std::int64_t w = row[static_cast<std::size_t>(k)];
      if (narrow) {
        panel.w16[at] = static_cast<std::int16_t>(w);
      } else {
        panel.w64[at] = w;
      }
    }
  }
  return panel;
}

// The tier a panel runs on for activations up to `amax`: the active tier
// when its weights are int16 and the narrow bound holds, else the int64
// scalar route.
core::KernelTier panel_tier(const ShiftPanel& panel, std::int64_t amax) {
  return !panel.w16.empty() && narrow_bound_ok(panel.max_gain, amax)
             ? core::active_kernel_tier()
             : core::KernelTier::kScalar;
}

// Multiply the panel by the packed activations `x` (`cols` columns) and
// store the dequantized rows; pruned filters' rows get the exact value an
// all-zero accumulator would store, the epilogue of 0 * scale + bias.
FLIGHTNN_HOT void run_panel(const ShiftPanel& panel, const std::int16_t* x,
                            std::int64_t cols, std::int64_t amax,
                            const core::IntGemmStore& store) {
  const core::IntGemmShape shape{static_cast<std::int64_t>(panel.rows.size()),
                                 panel.pairs, cols};
  if (panel.w16.empty()) {
    core::int_gemm(panel.w64.data(), x, shape, store);
  } else {
    core::int_gemm(panel_tier(panel, amax), panel.w16.data(), x, shape, store);
  }
  for (const std::int32_t f : panel.pruned) {
    float* out = store.out + f * store.ldo;
    std::fill(out, out + cols, core::int_gemm_epilogue(store, f, 0.0F));
  }
}

// A zero-bordered int16 code image: channel c, row y, column x of a
// [channels, h, w] image at ((c * (h + 2p) + y + p) * (w + 2p) + x + p).
// pad 0 is a dense plane; a conv's staging image has its padding. Writers
// zero a bordered layout whole first (one bulk fill is cheaper than zeroing
// the borders row by row), then write every row's interior.
struct CodeLayout {
  std::int64_t channels = 0, h = 0, w = 0, pad = 0;

  [[nodiscard]] std::int64_t size() const {
    return channels * (h + 2 * pad) * (w + 2 * pad);
  }
  // First interior element of row (c, y).
  [[nodiscard]] std::int16_t* row(std::int16_t* dst, std::int64_t c,
                                  std::int64_t y) const {
    return dst + (c * (h + 2 * pad) + y + pad) * (w + 2 * pad) + pad;
  }
  void clear_border(std::int16_t* dst) const {
    if (pad > 0) std::fill(dst, dst + size(), std::int16_t{0});
  }
};

// The quantizer's scale for one activation tensor: codes are
// q = clamp(round(x * 2^-scale_exp), +-q_max) with q_max = 2^(bits-1) - 1.
struct CodeScale {
  int scale_exp = 0;
  // x * 2^-scale_exp is formed as (x * pre) * inv: pre is 1 unless
  // 2^-scale_exp overflows float (an abs-max near the denormal range), where
  // pre = 2^64 lifts x exactly and the second product rounds once -- the
  // same value as the exact double quotient.
  float pre = 1.0F;
  float inv = 1.0F;
  float lim = 0.0F;  // q_max
  // Largest |q|: the code of the abs-max element, since rounding is
  // monotone and symmetric.
  std::int64_t max_abs = 0;
};

// Round-to-nearest-even via the 1.5*2^23 constant: exact for |v| < 2^22,
// guaranteed here because the scale covers the abs-max (|v| <= 2 q_max <
// 2^16). Identical results to std::nearbyint in the default rounding mode,
// but branch-free, libm-free and vectorizable.
constexpr float kRound = 12582912.0F;  // 1.5 * 2^23

inline float round_code(float x, const CodeScale& cs) {
  const float r = ((x * cs.pre) * cs.inv + kRound) - kRound;
  return std::min(cs.lim, std::max(-cs.lim, r));
}

// Pow2 scale from the abs-max. `what` names the caller in the errors:
// bits outside [2, 16] and non-finite input (abs_max is NaN/Inf exactly
// when some element is, so one compare keeps it out of the conversions).
CodeScale code_scale(float abs_max, int bits, const char* what) {
  FLIGHTNN_CHECK(bits >= 2 && bits <= 16, what, ": bits ", bits,
                 " outside [2, 16]");
  FLIGHTNN_CHECK(std::isfinite(abs_max), what, ": non-finite input (abs max ",
                 abs_max, ")");
  CodeScale cs;
  cs.lim = static_cast<float>((1 << (bits - 1)) - 1);
  if (abs_max > 0.0F) {
    cs.scale_exp =
        static_cast<int>(std::ceil(std::log2(abs_max / cs.lim)));
  }
  if (cs.scale_exp < -126) {
    cs.pre = std::ldexp(1.0F, 64);
    cs.inv = std::ldexp(1.0F, -cs.scale_exp - 64);
  } else {
    cs.inv = std::ldexp(1.0F, -cs.scale_exp);
  }
  cs.max_abs = static_cast<std::int64_t>(round_code(abs_max, cs));
  return cs;
}

// Codes of n contiguous floats. Multiversioned so the AVX2 clone converts
// eight lanes at a time.
FLIGHTNN_SIMD_CLONES FLIGHTNN_HOT void encode_span(const float* x,
                                                   std::int64_t n,
                                                   const CodeScale& cs,
                                                   std::int16_t* dst) {
  const CodeScale local = cs;
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int16_t>(round_code(x[i], local));
  }
}

// Quantize the contiguous float image at `x` (layout's interior order) into
// int16 codes in `layout` at `dst`: the one code pass of every shift layer.
FLIGHTNN_HOT void encode_into(const float* x, const CodeScale& cs,
                              const CodeLayout& layout, std::int16_t* dst) {
  if (layout.pad == 0) {
    encode_span(x, layout.size(), cs, dst);
    return;
  }
  layout.clear_border(dst);
  for (std::int64_t c = 0; c < layout.channels; ++c) {
    for (std::int64_t y = 0; y < layout.h; ++y) {
      encode_span(x + (c * layout.h + y) * layout.w, layout.w, cs,
                  layout.row(dst, c, y));
    }
  }
}

// Max pool of the dense code plane [layout.channels, h, w] (window, stride)
// into `layout` (the pooled geometry) at `dst`. Max commutes with the
// monotone code map, so this equals pooling the floats, then quantizing.
// Each output row first takes the vertical max of its window's rows into
// the window's top row -- in place: no later output row reads that row --
// with contiguous, vectorizable loops; then the horizontal max, whose 2/2
// form (every pool of the Table-1 networks) vectorizes as well.
FLIGHTNN_SIMD_CLONES FLIGHTNN_HOT void pool_codes(
    std::int16_t* plane, std::int64_t h, std::int64_t w, std::int64_t window,
    std::int64_t stride, const CodeLayout& layout, std::int16_t* dst) {
  layout.clear_border(dst);
  for (std::int64_t c = 0; c < layout.channels; ++c) {
    for (std::int64_t oy = 0; oy < layout.h; ++oy) {
      std::int16_t* __restrict top = plane + (c * h + oy * stride) * w;
      for (std::int64_t ky = 1; ky < window; ++ky) {
        const std::int16_t* __restrict next = top + ky * w;
        for (std::int64_t x = 0; x < w; ++x) {
          top[x] = std::max(top[x], next[x]);
        }
      }
      std::int16_t* __restrict out = layout.row(dst, c, oy);
      if (window == 2 && stride == 2) {
        for (std::int64_t ox = 0; ox < layout.w; ++ox) {
          out[ox] = std::max(top[2 * ox], top[2 * ox + 1]);
        }
        continue;
      }
      for (std::int64_t ox = 0; ox < layout.w; ++ox) {
        std::int16_t best = top[ox * stride];
        for (std::int64_t kx = 1; kx < window; ++kx) {
          best = std::max(best, top[ox * stride + kx]);
        }
        out[ox] = best;
      }
    }
  }
}

// Narrowing copy of int32 codes (|q| already checked to fit int16).
void stage_values(const std::int32_t* values, const CodeLayout& layout,
                  std::int16_t* dst) {
  layout.clear_border(dst);
  for (std::int64_t c = 0; c < layout.channels; ++c) {
    for (std::int64_t y = 0; y < layout.h; ++y) {
      const std::int32_t* src = values + (c * layout.h + y) * layout.w;
      std::int16_t* row = layout.row(dst, c, y);
      for (std::int64_t x = 0; x < layout.w; ++x) {
        row[x] = static_cast<std::int16_t>(src[x]);
      }
    }
  }
}

}  // namespace

std::int64_t QuantizedActivations::abs_max() const {
  return max_abs >= 0 ? max_abs : max_abs_value(values);
}

QuantizedActivations quantize_tensor(const tensor::Tensor& x, int bits) {
  const CodeScale cs = code_scale(x.abs_max(), bits, "quantize_tensor");
  std::vector<std::int16_t> codes(static_cast<std::size_t>(x.numel()));
  encode_span(x.data(), x.numel(), cs, codes.data());
  QuantizedActivations out;
  out.values.assign(codes.begin(), codes.end());
  out.scale_exp = cs.scale_exp;
  out.shape = x.shape();
  out.max_abs = cs.max_abs;
  return out;
}

QuantizedActivations quantize_image(const tensor::Tensor& image, int bits) {
  const auto& s = image.shape();
  FLIGHTNN_CHECK(s.rank() == 3 || (s.rank() == 4 && s[0] == 1),
                 "quantize_image: expected [C,H,W] or [1,C,H,W], got ",
                 s.to_string());
  QuantizedActivations out = quantize_tensor(image, bits);
  out.shape = s.rank() == 3 ? s : tensor::Shape{s[1], s[2], s[3]};
  return out;
}

tensor::Tensor fake_quantize(const tensor::Tensor& x, int bits) {
  const CodeScale cs = code_scale(x.abs_max(), bits, "fake_quantize");
  // The rounded code is integral and |q| <= q_max < 2^15, so the rescale
  // q * 2^scale_exp is exact -- element-wise identical to
  // quantize-then-dequantize.
  const float scale = std::ldexp(1.0F, cs.scale_exp);
  tensor::Tensor out(x.shape());
  const float* in = x.data();
  float* o = out.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    o[i] = round_code(in[i], cs) * scale;
  }
  return out;
}

tensor::Tensor dequantize(const QuantizedActivations& activations) {
  FLIGHTNN_CHECK(static_cast<std::int64_t>(activations.values.size()) ==
                     activations.shape.numel(),
                 "dequantize: ", activations.values.size(),
                 " values do not fill shape ", activations.shape.to_string());
  tensor::Tensor out(activations.shape);
  const float scale = std::ldexp(1.0F, activations.scale_exp);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    out[i] = static_cast<float>(activations.values[static_cast<std::size_t>(i)]) * scale;
  }
  return out;
}

ShiftLowering lower_shift_weights(const tensor::Tensor& quantized_weights,
                                  int k_max, const quant::Pow2Config& config) {
  const auto& s = quantized_weights.shape();
  FLIGHTNN_CHECK(s.rank() == 4 || s.rank() == 2,
                 "lower_shift_weights: OIHW or [out, in] weights required, "
                 "got ", s.to_string());
  const bool conv = s.rank() == 4;
  FLIGHTNN_CHECK(!conv || s[2] == s[3],
                 "lower_shift_weights: square kernels only, got ",
                 s.to_string());
  const core::Decomposition decomposition =
      core::decompose_to_lightnn1(quantized_weights, k_max, config);
  validate_decomposition(decomposition, s[0],
                         conv ? s[1] * s[2] * s[3] : s[1], config,
                         "lower_shift_weights");
  ShiftLowering lowered;
  lowered.plan = ShiftPlan::compile(decomposition, config);
  lowered.term_count = decomposition.term_count();
  return lowered;
}

ShiftConv2d::ShiftConv2d(const tensor::Tensor& quantized_weights, int k_max,
                         const quant::Pow2Config& config, std::int64_t stride,
                         std::int64_t padding, tensor::Tensor bias)
    : ShiftConv2d(lower_shift_weights(quantized_weights, k_max, config),
                  conv_spec(quantized_weights.shape(), stride, padding), config,
                  std::move(bias)) {}

ShiftConv2d::ShiftConv2d(ShiftLowering lowered, const ShiftConvSpec& spec,
                         const quant::Pow2Config& config, tensor::Tensor bias)
    : config_(config),
      out_channels_(spec.out_channels),
      in_channels_(spec.in_channels),
      kernel_(spec.kernel),
      stride_(spec.stride),
      padding_(spec.padding),
      term_count_(lowered.term_count),
      bias_(std::move(bias)) {
  FLIGHTNN_CHECK(out_channels_ > 0 && in_channels_ > 0 && kernel_ > 0,
                 "ShiftConv2d: bad adopted geometry [", out_channels_, ", ",
                 in_channels_, ", ", kernel_, "]");
  FLIGHTNN_CHECK(stride_ > 0 && padding_ >= 0, "ShiftConv2d: bad stride ",
                 stride_, " / padding ", padding_);
  FLIGHTNN_CHECK(bias_.empty() || bias_.numel() == out_channels_,
                 "ShiftConv2d: bias size ", bias_.numel(),
                 " does not match out channels ", out_channels_);
  // Only the GEMM panel and the per-tap entry census outlive construction;
  // the plan itself is not kept. build_panel has bounds-checked every entry
  // (the adopted prefix covers them all), so the tap of element c*K*K + t
  // is element % (K*K).
  const ShiftPlan& plan = lowered.plan;
  check_adopted_plan(plan, out_channels_, "ShiftConv2d");
  panel_ = build_panel(plan, in_channels_ * kernel_ * kernel_, "ShiftConv2d");
  const std::int64_t taps = kernel_ * kernel_;
  tap_entries_.assign(static_cast<std::size_t>(taps), 0);
  for (const std::int32_t element : plan.element) {
    ++tap_entries_[static_cast<std::size_t>(element % taps)];
  }
}

std::int64_t conv_scratch_elements(const tensor::ConvGeometry& geom,
                                   std::int64_t unpooled_numel) {
  return core::im2col_pairs_panel(geom) + core::im2col_pairs_staged(geom) +
         unpooled_numel;
}

tensor::ConvGeometry ShiftConv2d::geometry(std::int64_t in_h,
                                           std::int64_t in_w) const {
  const tensor::ConvGeometry geom{in_channels_, in_h, in_w,
                                  kernel_,      stride_, padding_};
  FLIGHTNN_CHECK(geom.out_h() > 0 && geom.out_w() > 0,
                 "ShiftConv2d::run: input [", in_channels_, ", ", in_h, ", ",
                 in_w, "] is smaller than the kernel");
  return geom;
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor ShiftConv2d::run(
    const tensor::Tensor& input, int act_bits, const ConvFusion& fusion,
    OpCounts* counts) const {
  const auto& s = input.shape();
  FLIGHTNN_CHECK(s.rank() == 3 && s[0] == in_channels_,
                 "ShiftConv2d::run: expected [", in_channels_,
                 ", H, W] input, got ", s.to_string());
  FLIGHTNN_CHECK(fusion.scale.size() == fusion.bias.size() &&
                     (fusion.scale.empty() ||
                      static_cast<std::int64_t>(fusion.scale.size()) ==
                          out_channels_),
                 "ShiftConv2d::run: fused affine of ", fusion.scale.size(),
                 "/", fusion.bias.size(), " channels, expected ",
                 out_channels_);
  const bool pool = fusion.pool_window > 0;
  std::int64_t in_h = s[1], in_w = s[2];
  if (pool) {
    FLIGHTNN_CHECK(fusion.pool_stride > 0 && in_h >= fusion.pool_window &&
                       in_w >= fusion.pool_window,
                   "ShiftConv2d::run: pool window ", fusion.pool_window,
                   " / stride ", fusion.pool_stride, " does not fit input ",
                   s.to_string());
    in_h = (in_h - fusion.pool_window) / fusion.pool_stride + 1;
    in_w = (in_w - fusion.pool_window) / fusion.pool_stride + 1;
  }
  const CodeScale cs = code_scale(input.abs_max(), act_bits, "ShiftConv2d::run");
  check_accumulator_range(cs.max_abs, panel_.max_gain, "ShiftConv2d::run");
  const tensor::ConvGeometry geom = geometry(in_h, in_w);

  // One code pass into the arena slot [panel | staging | unpooled plane]:
  // straight into the zero-bordered staging image, or into the dense plane
  // that the pool over codes then reduces into the staging image.
  std::int16_t* scratch = runtime::ScratchArena::current().i16(
      runtime::Scratch::kPatchPanel,
      static_cast<std::size_t>(
          conv_scratch_elements(geom, pool ? input.numel() : 0)));
  std::int16_t* staged = scratch + core::im2col_pairs_panel(geom);
  const CodeLayout layout{in_channels_, in_h, in_w, padding_};
  if (pool) {
    std::int16_t* plane = staged + core::im2col_pairs_staged(geom);
    encode_into(input.data(), cs, CodeLayout{in_channels_, s[1], s[2], 0},
                plane);
    pool_codes(plane, s[1], s[2], fusion.pool_window, fusion.pool_stride,
               layout, staged);
  } else {
    encode_into(input.data(), cs, layout, staged);
  }
  return run_staged(scratch, geom, cs.scale_exp, cs.max_abs, fusion, counts);
}

tensor::Tensor ShiftConv2d::run(const QuantizedActivations& input,
                                OpCounts* counts) const {
  FLIGHTNN_CHECK(input.shape.rank() == 3 && input.shape[0] == in_channels_,
                 "ShiftConv2d::run: expected [", in_channels_,
                 ", H, W] input, got ", input.shape.to_string());
  FLIGHTNN_CHECK(static_cast<std::int64_t>(input.values.size()) ==
                     input.shape.numel(),
                 "ShiftConv2d::run: ", input.values.size(),
                 " values do not fill shape ", input.shape.to_string());
  const std::int64_t amax = input.abs_max();
  check_accumulator_range(amax, panel_.max_gain, "ShiftConv2d::run");
  const std::int64_t in_h = input.shape[1], in_w = input.shape[2];
  const tensor::ConvGeometry geom = geometry(in_h, in_w);
  std::int16_t* scratch = runtime::ScratchArena::current().i16(
      runtime::Scratch::kPatchPanel,
      static_cast<std::size_t>(conv_scratch_elements(geom, 0)));
  stage_values(input.values.data(),
               CodeLayout{in_channels_, in_h, in_w, padding_},
               scratch + core::im2col_pairs_panel(geom));
  static const ConvFusion kNoFusion;
  return run_staged(scratch, geom, input.scale_exp, amax, kNoFusion, counts);
}

FLIGHTNN_HOT tensor::Tensor ShiftConv2d::run_staged(
    std::int16_t* scratch, const tensor::ConvGeometry& geom, int scale_exp,
    std::int64_t amax, const ConvFusion& fusion, OpCounts* counts) const {
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t out_hw = out_h * out_w;
  // Gather the K-pair panel from the staged codes, then one GEMM per image
  // with dequantize, bias and the fused epilogue in its store.
  core::im2col_pairs(scratch + core::im2col_pairs_panel(geom), geom, scratch);
  tensor::Tensor output(tensor::Shape{out_channels_, out_h, out_w});
  core::IntGemmStore store{output.data(), out_hw, panel_.rows.data(),
                           bias_.empty() ? nullptr : bias_.data(),
                           std::ldexp(1.0F, scale_exp + config_.e_min)};
  if (!fusion.scale.empty()) {
    store.post_scale = fusion.scale.data();
    store.post_bias = fusion.bias.data();
  }
  store.leaky = fusion.leaky;
  store.slope = fusion.slope;
  run_panel(panel_, scratch, out_hw, amax, store);

  if (counts != nullptr) {
    // Analytic census of the shift datapath: each plan entry accumulates
    // once per output position whose tap is in-bounds, vy(ky) * vx(kx),
    // summed per tap. Matches the term walk's per-accumulate counting
    // exactly.
    std::int64_t total = 0;
    for (std::int64_t ky = 0; ky < kernel_; ++ky) {
      const std::int64_t vy =
          valid_positions(ky, out_h, geom.in_h, stride_, padding_);
      for (std::int64_t kx = 0; kx < kernel_; ++kx) {
        total += tap_entries_[static_cast<std::size_t>(ky * kernel_ + kx)] *
                 vy * valid_positions(kx, out_w, geom.in_w, stride_, padding_);
      }
    }
    counts->shifts += total;
    counts->adds += total;
  }
  return output;
}

ShiftLinear::ShiftLinear(const tensor::Tensor& quantized_weights, int k_max,
                         const quant::Pow2Config& config, tensor::Tensor bias)
    : ShiftLinear(lower_shift_weights(quantized_weights, k_max, config),
                  linear_spec(quantized_weights.shape()), config,
                  std::move(bias)) {}

ShiftLinear::ShiftLinear(ShiftLowering lowered, const ShiftLinearSpec& spec,
                         const quant::Pow2Config& config, tensor::Tensor bias)
    : config_(config),
      out_features_(spec.out_features),
      in_features_(spec.in_features),
      term_count_(lowered.term_count),
      entries_(lowered.plan.entries()),
      bias_(std::move(bias)) {
  FLIGHTNN_CHECK(out_features_ > 0 && in_features_ > 0,
                 "ShiftLinear: bad adopted geometry [", out_features_, ", ",
                 in_features_, "]");
  FLIGHTNN_CHECK(bias_.empty() || bias_.numel() == out_features_,
                 "ShiftLinear: bias size ", bias_.numel(),
                 " does not match out features ", out_features_);
  const ShiftPlan& plan = lowered.plan;
  check_adopted_plan(plan, out_features_, "ShiftLinear");
  panel_ = build_panel(plan, in_features_, "ShiftLinear");
}

// The input vector is a one-column K-pair panel (ld 1): the codes in
// order, then a zero for an odd in_features' last pair.
FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor ShiftLinear::run(
    const tensor::Tensor& input, int act_bits, OpCounts* counts) const {
  FLIGHTNN_CHECK(input.numel() == in_features_,
                 "ShiftLinear::run: input numel ", input.numel(),
                 " does not match in features ", in_features_);
  const CodeScale cs = code_scale(input.abs_max(), act_bits, "ShiftLinear::run");
  check_accumulator_range(cs.max_abs, panel_.max_gain, "ShiftLinear::run");
  std::int16_t* x = runtime::ScratchArena::current().i16(
      runtime::Scratch::kPatchPanel, static_cast<std::size_t>(panel_.pairs * 2));
  encode_span(input.data(), in_features_, cs, x);
  std::fill(x + in_features_, x + panel_.pairs * 2, std::int16_t{0});
  return run_panel_codes(x, cs.scale_exp, cs.max_abs, counts);
}

tensor::Tensor ShiftLinear::run(const QuantizedActivations& input,
                                OpCounts* counts) const {
  FLIGHTNN_CHECK(input.shape.numel() == in_features_,
                 "ShiftLinear::run: input numel ", input.shape.numel(),
                 " does not match in features ", in_features_);
  FLIGHTNN_CHECK(static_cast<std::int64_t>(input.values.size()) ==
                     input.shape.numel(),
                 "ShiftLinear::run: ", input.values.size(),
                 " values do not fill shape ", input.shape.to_string());
  const std::int64_t amax = input.abs_max();
  check_accumulator_range(amax, panel_.max_gain, "ShiftLinear::run");
  std::int16_t* x = runtime::ScratchArena::current().i16(
      runtime::Scratch::kPatchPanel, static_cast<std::size_t>(panel_.pairs * 2));
  stage_values(input.values.data(), CodeLayout{1, 1, in_features_, 0}, x);
  std::fill(x + in_features_, x + panel_.pairs * 2, std::int16_t{0});
  return run_panel_codes(x, input.scale_exp, amax, counts);
}

tensor::Tensor ShiftLinear::run_panel_codes(const std::int16_t* x,
                                            int scale_exp, std::int64_t amax,
                                            OpCounts* counts) const {
  tensor::Tensor output(tensor::Shape{out_features_});
  run_panel(panel_, x, 1, amax,
            core::IntGemmStore{output.data(), 1, panel_.rows.data(),
                               bias_.empty() ? nullptr : bias_.data(),
                               std::ldexp(1.0F, scale_exp + config_.e_min)});
  if (counts != nullptr) {
    // One accumulate per plan entry; matches the term walk's counting.
    counts->shifts += entries_;
    counts->adds += entries_;
  }
  return output;
}

const char* ShiftConv2d::kernel_tier(int act_bits) const {
  // Static form of run()'s gate at the quantizer's ceiling |q| <=
  // 2^(bits-1) - 1: if the narrow bound holds there it holds for every
  // batch. (A batch with a smaller abs-max may take the avx2 tier even
  // when this reports scalar; the report is the steady-state answer.)
  return core::kernel_tier_name(
      panel_tier(panel_, (std::int64_t{1} << (act_bits - 1)) - 1));
}

const char* ShiftLinear::kernel_tier(int /*act_bits*/) const {
  // A one-column GEMM always runs on the scalar tile (core::int_gemm).
  return core::kernel_tier_name(core::KernelTier::kScalar);
}

tensor::Tensor reference_conv(const tensor::Tensor& weights,
                              const tensor::Tensor& image, std::int64_t stride,
                              std::int64_t padding, const tensor::Tensor& bias) {
  const auto& ws = weights.shape();
  const auto& is = image.shape();
  FLIGHTNN_CHECK(ws.rank() == 4 && is.rank() == 3 && ws[1] == is[0] &&
                     ws[2] == ws[3],
                 "reference_conv: bad shapes, weights ", ws.to_string(),
                 " image ", is.to_string());
  const std::int64_t out_ch = ws[0], in_ch = ws[1], kernel = ws[2];
  const std::int64_t in_h = is[1], in_w = is[2];
  const tensor::ConvGeometry geom{in_ch, in_h, in_w, kernel, stride, padding};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();

  tensor::Tensor output(tensor::Shape{out_ch, out_h, out_w});
  for (std::int64_t o = 0; o < out_ch; ++o) {
    const float b = bias.empty() ? 0.0F : bias[o];
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        double acc = b;
        for (std::int64_t c = 0; c < in_ch; ++c) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            const std::int64_t iy = oy * stride + ky - padding;
            if (iy < 0 || iy >= in_h) continue;
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t ix = ox * stride + kx - padding;
              if (ix < 0 || ix >= in_w) continue;
              acc += static_cast<double>(
                         weights[((o * in_ch + c) * kernel + ky) * kernel + kx]) *
                     image[(c * in_h + iy) * in_w + ix];
            }
          }
        }
        output[(o * out_h + oy) * out_w + ox] = static_cast<float>(acc);
      }
    }
  }
  return output;
}

}  // namespace flightnn::inference
