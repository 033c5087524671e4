#pragma once

// The term-walk oracle: the shift engine as the paper's Fig. 3 states it,
// with no compiled plan. It walks a core::Decomposition directly -- every
// single-shift term of every filter, zero elements included, each nonzero
// element one barrel shift per output position -- serially and in int64.
// The differential tests hold the plan engine's run() to this walk
// memcmp-exactly: both add the same multiset of exact integer addends to
// each accumulator, so any thread count, kernel tier or accumulator width
// must agree bit for bit (DESIGN.md §9). Op counts are per accumulate, the
// census the plan engine computes analytically.

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/decompose.hpp"
#include "inference/shift_engine.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::oracle {

// Conv layer `spec` over one quantized [C, H, W] image; `bias` may be empty.
inline tensor::Tensor term_walk_conv(
    const core::Decomposition& decomposition,
    const inference::ShiftConvSpec& spec, const quant::Pow2Config& config,
    const inference::QuantizedActivations& input,
    const tensor::Tensor& bias = {}, inference::OpCounts* counts = nullptr) {
  FLIGHTNN_CHECK(static_cast<std::int64_t>(decomposition.filter_k.size()) ==
                         spec.out_channels &&
                     decomposition.elements_per_filter ==
                         spec.in_channels * spec.kernel * spec.kernel,
                 "term_walk_conv: decomposition does not match the spec");
  FLIGHTNN_CHECK(input.shape.rank() == 3 && input.shape[0] == spec.in_channels,
                 "term_walk_conv: expected [", spec.in_channels,
                 ", H, W] input, got ", input.shape.to_string());
  const std::int64_t in_h = input.shape[1], in_w = input.shape[2];
  const tensor::ConvGeometry geom{spec.in_channels, in_h,        in_w,
                                  spec.kernel,      spec.stride, spec.padding};
  const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
  const std::int64_t out_hw = out_h * out_w;

  std::vector<std::int64_t> accumulator(
      static_cast<std::size_t>(spec.out_channels * out_hw), 0);
  for (const auto& term : decomposition.terms) {
    std::int64_t* acc = accumulator.data() + term.filter * out_hw;
    std::int64_t e = 0;
    for (std::int64_t c = 0; c < spec.in_channels; ++c) {
      const std::int32_t* in_plane = input.values.data() + c * in_h * in_w;
      for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < spec.kernel; ++kx, ++e) {
          const quant::Pow2Term w = term.elements[static_cast<std::size_t>(e)];
          if (w.sign == 0) continue;
          const int shift = static_cast<int>(w.exponent) - config.e_min;
          for (std::int64_t oy = 0; oy < out_h; ++oy) {
            const std::int64_t iy = oy * spec.stride + ky - spec.padding;
            if (iy < 0 || iy >= in_h) continue;
            for (std::int64_t ox = 0; ox < out_w; ++ox) {
              const std::int64_t ix = ox * spec.stride + kx - spec.padding;
              if (ix < 0 || ix >= in_w) continue;
              const std::int64_t q = in_plane[iy * in_w + ix];
              acc[oy * out_w + ox] += (w.sign > 0 ? q : -q) << shift;
              if (counts != nullptr) {
                ++counts->shifts;
                ++counts->adds;
              }
            }
          }
        }
      }
    }
  }

  const float scale = std::ldexp(1.0F, input.scale_exp + config.e_min);
  tensor::Tensor output(tensor::Shape{spec.out_channels, out_h, out_w});
  for (std::int64_t f = 0; f < spec.out_channels; ++f) {
    const float b = bias.empty() ? 0.0F : bias[f];
    const std::int64_t* acc = accumulator.data() + f * out_hw;
    float* out = output.data() + f * out_hw;
    for (std::int64_t i = 0; i < out_hw; ++i) {
      out[i] = static_cast<float>(acc[i]) * scale + b;
    }
  }
  return output;
}

// Linear layer over a quantized flat vector of elements_per_filter features.
inline tensor::Tensor term_walk_linear(
    const core::Decomposition& decomposition, const quant::Pow2Config& config,
    const inference::QuantizedActivations& input,
    const tensor::Tensor& bias = {}, inference::OpCounts* counts = nullptr) {
  const auto out_features =
      static_cast<std::int64_t>(decomposition.filter_k.size());
  const std::int64_t in_features = decomposition.elements_per_filter;
  FLIGHTNN_CHECK(input.shape.numel() == in_features,
                 "term_walk_linear: input numel ", input.shape.numel(),
                 " does not match in features ", in_features);
  std::vector<std::int64_t> accumulator(
      static_cast<std::size_t>(out_features), 0);
  for (const auto& term : decomposition.terms) {
    std::int64_t& acc = accumulator[static_cast<std::size_t>(term.filter)];
    for (std::int64_t e = 0; e < in_features; ++e) {
      const quant::Pow2Term w = term.elements[static_cast<std::size_t>(e)];
      if (w.sign == 0) continue;
      const int shift = static_cast<int>(w.exponent) - config.e_min;
      const std::int64_t q = input.values[static_cast<std::size_t>(e)];
      acc += (w.sign > 0 ? q : -q) << shift;
      if (counts != nullptr) {
        ++counts->shifts;
        ++counts->adds;
      }
    }
  }

  const float scale = std::ldexp(1.0F, input.scale_exp + config.e_min);
  tensor::Tensor output(tensor::Shape{out_features});
  for (std::int64_t f = 0; f < out_features; ++f) {
    const float b = bias.empty() ? 0.0F : bias[f];
    output[f] =
        static_cast<float>(accumulator[static_cast<std::size_t>(f)]) * scale +
        b;
  }
  return output;
}

}  // namespace flightnn::oracle
