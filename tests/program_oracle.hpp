#pragma once

// The program oracle: a trained nn model interpreted op by op the way the
// compiled network's semantics are written down, with no compiled program,
// no fusion and no GEMM. Every ActivationQuant snaps to its pow2 grid
// (quantize, then dequantize); every shift layer re-quantizes its input at
// the current activation width and runs the term-walk oracle
// (term_walk_oracle.hpp) on its own decomposition; batch norm is folded
// exactly as compile_program folds it; the float steps run in their plain
// branch form (v > 0 ? v : slope * v). The fused network must reproduce
// these logits byte for byte (DESIGN.md §14's exactness argument).
//
// Targets that include this header compile with -ffp-contract=off, as the
// library does, so the affine's multiply and add round separately here too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "inference/shift_engine.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "quant/lightnn.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn::oracle {

namespace detail {

// k_max > 0 when the layer's weights are sums of at most k_max powers of two.
struct Coding {
  int k_max = 0;
  quant::Pow2Config pow2;
};

inline Coding coding_of(quant::WeightTransform* transform) {
  if (auto* lightnn = dynamic_cast<quant::LightNNTransform*>(transform)) {
    return {lightnn->k(), lightnn->config()};
  }
  if (auto* fl = dynamic_cast<core::FLightNNTransform*>(transform)) {
    return {fl->config().k_max, fl->config().pow2};
  }
  return {};
}

inline tensor::Tensor leaky(const tensor::Tensor& x, float slope) {
  tensor::Tensor out(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float v = x[i];
    out[i] = v > 0.0F ? v : slope * v;
  }
  return out;
}

inline tensor::Tensor max_pool(const tensor::Tensor& x, std::int64_t window,
                               std::int64_t stride) {
  const auto& s = x.shape();
  const std::int64_t out_h = (s[1] - window) / stride + 1;
  const std::int64_t out_w = (s[2] - window) / stride + 1;
  tensor::Tensor out(tensor::Shape{s[0], out_h, out_w});
  for (std::int64_t c = 0; c < s[0]; ++c) {
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        float best = x[(c * s[1] + oy * stride) * s[2] + ox * stride];
        for (std::int64_t ky = 0; ky < window; ++ky) {
          for (std::int64_t kx = 0; kx < window; ++kx) {
            best = std::max(
                best, x[(c * s[1] + oy * stride + ky) * s[2] + ox * stride + kx]);
          }
        }
        out[(c * out_h + oy) * out_w + ox] = best;
      }
    }
  }
  return out;
}

inline tensor::Tensor batch_norm(nn::BatchNorm2d& bn, const tensor::Tensor& x) {
  const auto& mean = bn.running_mean();
  const auto& var = bn.running_var();
  const std::int64_t channels = mean.numel();
  const std::int64_t hw = x.numel() / channels;
  tensor::Tensor out(x.shape());
  for (std::int64_t c = 0; c < channels; ++c) {
    // The fold of compile_program, written out the same way.
    const float inv_std = 1.0F / std::sqrt(var[c] + 1e-5F);
    const float scale = bn.gamma().value[c] * inv_std;
    const float bias = bn.beta().value[c] - mean[c] * scale;
    for (std::int64_t i = 0; i < hw; ++i) {
      out[c * hw + i] = scale * x[c * hw + i] + bias;
    }
  }
  return out;
}

inline tensor::Tensor global_avg_pool(const tensor::Tensor& x) {
  const std::int64_t channels = x.shape()[0];
  const std::int64_t hw = x.shape()[1] * x.shape()[2];
  tensor::Tensor out(tensor::Shape{channels});
  for (std::int64_t c = 0; c < channels; ++c) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) acc += x[c * hw + i];
    out[c] = static_cast<float>(acc / static_cast<double>(hw));
  }
  return out;
}

inline tensor::Tensor run_sequential(nn::Sequential& seq, tensor::Tensor x,
                                     int& act_bits);

// NOLINTNEXTLINE(misc-no-recursion)
inline tensor::Tensor run_layer(nn::Layer& layer, const tensor::Tensor& x,
                                int& act_bits) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    return run_sequential(*seq, x, act_bits);
  }
  if (auto* aq = dynamic_cast<nn::ActivationQuant*>(&layer)) {
    act_bits = aq->bits();
    return inference::dequantize(inference::quantize_tensor(x, act_bits));
  }
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const tensor::Tensor weights = conv->quantized_weight();
    const tensor::Tensor bias =
        conv->has_bias() ? conv->bias().value : tensor::Tensor();
    const Coding coding = coding_of(conv->weight_transform());
    if (coding.k_max == 0) {
      return inference::reference_conv(weights, x, conv->stride(),
                                       conv->padding(), bias);
    }
    const auto& ws = weights.shape();
    const inference::ShiftConvSpec spec{ws[0], ws[1], ws[2], conv->stride(),
                                        conv->padding()};
    return term_walk_conv(
        core::decompose_to_lightnn1(weights, coding.k_max, coding.pow2), spec,
        coding.pow2, inference::quantize_image(x, act_bits), bias);
  }
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&layer)) {
    return batch_norm(*bn, x);
  }
  if (auto* act = dynamic_cast<nn::LeakyReLU*>(&layer)) {
    return leaky(x, act->negative_slope());
  }
  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&layer)) {
    return max_pool(x, pool->window(), pool->stride());
  }
  if (dynamic_cast<nn::GlobalAvgPool*>(&layer) != nullptr) {
    return global_avg_pool(x);
  }
  if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
    return x.reshaped(tensor::Shape{x.numel()});
  }
  if (auto* linear = dynamic_cast<nn::Linear*>(&layer)) {
    const tensor::Tensor weights = linear->quantized_weight();
    const Coding coding = coding_of(linear->weight_transform());
    if (coding.k_max == 0) {
      throw std::invalid_argument("program oracle: float linear layers are "
                                  "not interpreted");
    }
    inference::QuantizedActivations q =
        inference::quantize_tensor(x, act_bits);
    q.shape = tensor::Shape{x.numel()};
    return term_walk_linear(
        core::decompose_to_lightnn1(weights, coding.k_max, coding.pow2),
        coding.pow2, q, linear->bias().value);
  }
  if (auto* block = dynamic_cast<nn::ResidualBlock*>(&layer)) {
    int main_bits = act_bits;
    tensor::Tensor main_out = run_sequential(block->main_path(), x, main_bits);
    int skip_bits = act_bits;
    const tensor::Tensor skip_out =
        block->shortcut() != nullptr
            ? run_sequential(*block->shortcut(), x, skip_bits)
            : x;
    main_out += skip_out;
    act_bits = main_bits;
    return run_sequential(block->post(), main_out, act_bits);
  }
  throw std::invalid_argument("program oracle: unsupported layer '" +
                              layer.name() + "'");
}

// NOLINTNEXTLINE(misc-no-recursion)
inline tensor::Tensor run_sequential(nn::Sequential& seq, tensor::Tensor x,
                                     int& act_bits) {
  for (const auto& layer : seq.layers()) x = run_layer(*layer, x, act_bits);
  return x;
}

}  // namespace detail

// Logits of `model` (eval mode, batch-norm statistics final) for one
// [C, H, W] image; `act_bits` is the activation width shift layers use
// before the model's first quantizer (CompileOptions::act_bits).
inline tensor::Tensor program_logits(nn::Sequential& model,
                                     const tensor::Tensor& image,
                                     int act_bits = 8) {
  return detail::run_sequential(model, image, act_bits);
}

}  // namespace flightnn::oracle
