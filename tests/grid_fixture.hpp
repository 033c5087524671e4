#pragma once

// Deterministic grid-valued models and images for byte-pinned tests (the
// golden artifact, the golden logits, the whole-network tier sweep). Every
// parameter and pixel is an exact grid value n/64 with |n| <= 64 drawn from
// a fixed xorshift32 stream, so quantization, plan lowering and batch-norm
// folding involve only correctly-rounded float ops (+-*/ and sqrt) and the
// bytes they produce do not depend on the compiler's libm.

#include <cstdint>
#include <memory>

#include "core/quantize_model.hpp"
#include "models/networks.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::grid {

inline std::uint32_t xorshift32(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

inline void fill_grid(tensor::Tensor& tensor, std::uint32_t& state) {
  float* data = tensor.data();
  for (std::int64_t i = 0; i < tensor.numel(); ++i) {
    const auto raw = static_cast<int>(xorshift32(state) % 129U) - 64;
    data[i] = static_cast<float>(raw) / 64.0F;
  }
}

// Table-1 network `id` (1 = VGG-7, 2 = ResNet-18) at `width_scale`, every
// parameter overwritten from the stream seeded with `state`, LightNN-2
// weights installed.
inline std::unique_ptr<nn::Sequential> grid_model(int id, float width_scale,
                                                  std::uint64_t seed,
                                                  std::uint32_t state) {
  models::BuildOptions build;
  build.classes = 10;
  build.in_channels = 3;
  build.width_scale = width_scale;
  build.seed = seed;
  auto model = models::build_network(models::table1_network(id), build);
  for (nn::Parameter* parameter : model->parameters()) {
    fill_grid(parameter->value, state);
  }
  core::install_lightnn(*model, 2);
  return model;
}

// One [3, 16, 16] grid image per salt.
inline tensor::Tensor grid_image(std::uint32_t salt) {
  tensor::Tensor image(tensor::Shape{3, 16, 16});
  std::uint32_t state = 0xB5297A4DU + salt;
  fill_grid(image, state);
  return image;
}

}  // namespace flightnn::grid
