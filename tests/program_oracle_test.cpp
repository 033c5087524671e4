// Whole-program differential and leaky-ReLU property tests.
//
//   1. FusedNetworkMatchesOpByOpOracle: the compiled network -- shift convs
//      fused with their quant, pool, folded batch norm and leaky ReLU --
//      reproduces the op-by-op program oracle (program_oracle.hpp) byte for
//      byte, for VGG-7 and ResNet-18 at two widths and three seeds, at 1 and
//      4 threads, on every kernel tier the host has. In those networks every
//      fused output is re-quantized downstream, which would absorb an
//      ulp-level slip in the store epilogue, so a conv stack whose output
//      *is* a fused epilogue (no quantizer after it) runs the same sweep,
//      and again with every other max-pool geometry.
//   2. The production leaky ReLU -- the standalone step and the GEMM store
//      epilogue, on both store paths and tiers -- is byte-equal to the
//      branch form v > 0 ? v : slope * v on signed zeros, denormals,
//      infinities, FLT_MAX and random normals, for slopes on both sides of
//      0 and 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "program_oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace flightnn {
namespace {

using inference::QuantizedNetwork;
using tensor::Shape;
using tensor::Tensor;

struct DispatchGuard {
  ~DispatchGuard() {
    core::set_kernel_tier_override(-1);
    runtime::set_num_threads(1);
  }
};

std::vector<int> tiers() {
  return support::cpu_has_avx2() ? std::vector<int>{0, 1} : std::vector<int>{0};
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// The conv stack's max pool (window, stride).
struct PoolGeometry {
  std::int64_t window = 2;
  std::int64_t stride = 2;
};

std::unique_ptr<nn::Sequential> conv_stack(float width_scale,
                                           std::uint64_t seed,
                                           PoolGeometry pool);

// A Table-1 network `id` (or, for id 0, the conv stack below with `pool`)
// with random weights and batch-norm parameters, running statistics moved
// off their defaults by one training-mode batch, and a shift quantizer
// installed (LightNN-2, FLightNN or LightNN-1 by seed).
std::unique_ptr<nn::Sequential> random_model(int id, float width_scale,
                                             std::uint64_t seed,
                                             PoolGeometry pool = {}) {
  std::unique_ptr<nn::Sequential> model;
  if (id == 0) {
    model = conv_stack(width_scale, seed, pool);
  } else {
    models::BuildOptions build;
    build.classes = 10;
    build.width_scale = width_scale;
    build.seed = seed;
    model = models::build_network(models::table1_network(id), build);
  }
  support::Rng rng(seed + 100);
  for (nn::Parameter* parameter : model->parameters()) {
    if (parameter->value.shape().rank() == 1) {
      parameter->value = Tensor::randn(parameter->value.shape(), rng, 0.5F, 0.5F);
    }
  }
  (void)model->forward(Tensor::randn(Shape{4, 3, 16, 16}, rng), /*training=*/true);
  switch (seed % 3) {
    case 1: core::install_lightnn(*model, 2); break;
    case 2: core::install_flightnn(*model, core::FLightNNConfig{}); break;
    default: core::install_lightnn(*model, 1); break;
  }
  return model;
}

// Two fused convs, the second pooled, ending in its leaky epilogue:
// quant -> conv -> bn -> leaky -> quant -> pool -> conv -> bn -> leaky.
// `id` 0 in the sweeps below.
std::unique_ptr<nn::Sequential> conv_stack(float width_scale,
                                           std::uint64_t seed,
                                           PoolGeometry pool) {
  support::Rng rng(seed);
  const auto channels =
      std::max<std::int64_t>(4, static_cast<std::int64_t>(64 * width_scale));
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::ActivationQuant>(8);
  model->emplace<nn::Conv2d>(3, channels, 3, 1, 1, /*with_bias=*/false, rng);
  model->emplace<nn::BatchNorm2d>(channels);
  model->emplace<nn::LeakyReLU>(0.1F);
  model->emplace<nn::ActivationQuant>(8);
  model->emplace<nn::MaxPool2d>(pool.window, pool.stride);
  model->emplace<nn::Conv2d>(channels, channels, 3, 1, 1, false, rng);
  model->emplace<nn::BatchNorm2d>(channels);
  model->emplace<nn::LeakyReLU>(0.1F);
  return model;
}

TEST(ProgramOracle, FusedNetworkMatchesOpByOpOracle) {
  const DispatchGuard guard;
  for (const int id : {0, 1, 2}) {  // conv stack, VGG-7, ResNet-18
    for (const float width : {0.125F, 0.25F}) {
      for (const std::uint64_t seed : {1U, 2U, 3U}) {
        auto model = random_model(id, width, seed);
        const QuantizedNetwork network =
            QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
        support::Rng rng(seed + 7);
        for (int image = 0; image < 2; ++image) {
          const Tensor x = Tensor::randn(Shape{3, 16, 16}, rng);
          const Tensor want = oracle::program_logits(*model, x);
          for (const int threads : {1, 4}) {
            runtime::set_num_threads(threads);
            for (const int tier : tiers()) {
              core::set_kernel_tier_override(tier);
              EXPECT_TRUE(bytes_equal(network.run(x), want))
                  << "network " << id << " width " << width << " seed "
                  << seed << " image " << image << " threads " << threads
                  << " tier " << tier;
            }
          }
        }
      }
    }
  }
}

// The Table-1 networks pool 2/2 only; every other geometry takes the pool
// over codes' general path: overlapping windows (3/2, 3/1), a stride past
// the window (2/3) and the 1/1 identity, on an odd-sized input.
TEST(ProgramOracle, FusedPoolGeometriesMatchOpByOpOracle) {
  const DispatchGuard guard;
  for (const PoolGeometry pool : {PoolGeometry{3, 2}, PoolGeometry{3, 1},
                                  PoolGeometry{2, 3}, PoolGeometry{1, 1}}) {
    for (const std::uint64_t seed : {1U, 2U}) {
      auto model = random_model(0, 0.125F, seed, pool);
      const QuantizedNetwork network =
          QuantizedNetwork::compile(*model, Shape{1, 3, 15, 15});
      ASSERT_NE(network.describe().find("+maxpool+"), std::string::npos)
          << network.describe();
      support::Rng rng(seed + 11);
      const Tensor x = Tensor::randn(Shape{3, 15, 15}, rng);
      const Tensor want = oracle::program_logits(*model, x);
      for (const int tier : tiers()) {
        core::set_kernel_tier_override(tier);
        EXPECT_TRUE(bytes_equal(network.run(x), want))
            << "pool " << pool.window << "/" << pool.stride << " seed "
            << seed << " tier " << tier;
      }
    }
  }
}

// --- Leaky ReLU property ------------------------------------------------------

constexpr float kSlopes[] = {0.0F, 0.01F, 0.5F, 1.0F, -0.2F, 3.0F};

std::vector<float> leaky_inputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> values = {0.0F,     -0.0F,    denorm,  -denorm,
                               1e-40F,   -1e-40F,  inf,     -inf,
                               FLT_MAX,  -FLT_MAX, FLT_MIN, -FLT_MIN};
  support::Rng rng(41);
  const Tensor normals = Tensor::randn(Shape{52}, rng);
  for (std::int64_t i = 0; i < normals.numel(); ++i) values.push_back(normals[i]);
  return values;
}

float branch_leaky(float v, float slope) { return v > 0.0F ? v : slope * v; }

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Per-value float stage (scale, bias) and input x with scale * x + bias == v
// exactly: ±inf from 2 * ±FLT_MAX, -0 from -1 * 0 + -0, the rest as 1 * v +
// -0 (which keeps +0 at +0).
struct Affine {
  float x, scale, bias;
};
Affine affine_for(float v) {
  if (std::isinf(v)) return {v > 0 ? FLT_MAX : -FLT_MAX, 2.0F, -0.0F};
  if (v == 0.0F && std::signbit(v)) return {0.0F, -1.0F, -0.0F};
  return {v, 1.0F, -0.0F};
}

TEST(LeakyProperty, StandaloneStepMatchesBranchForm) {
  const std::vector<float> values = leaky_inputs();
  const auto n = static_cast<std::int64_t>(values.size());
  for (const float slope : kSlopes) {
    inference::NetworkProgram program;
    program.input_c = n;
    program.input_h = 1;
    program.input_w = 1;
    inference::ProgramOp affine;
    affine.kind = inference::ProgramOpKind::kAffine;
    inference::ProgramOp leaky;
    leaky.kind = inference::ProgramOpKind::kLeakyRelu;
    leaky.slope = slope;
    Tensor x(Shape{n, 1, 1});
    for (std::int64_t i = 0; i < n; ++i) {
      const Affine a = affine_for(values[static_cast<std::size_t>(i)]);
      x[i] = a.x;
      affine.scale.push_back(a.scale);
      affine.affine_bias.push_back(a.bias);
    }
    program.ops = {affine, leaky};
    const QuantizedNetwork network =
        QuantizedNetwork::from_program(std::move(program));
    ASSERT_EQ(network.describe(), "affine -> leaky_relu");
    const Tensor out = network.run(x);
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = values[static_cast<std::size_t>(i)];
      EXPECT_TRUE(same_bits(out[i], branch_leaky(v, slope)))
          << "v=" << v << " slope=" << slope << " got " << out[i];
    }
  }
}

// The store epilogue on an all-zero GEMM: row o stores the epilogue of
// 0 * 1 + bias[o], so per-row bias and affine set the leaky's input. 16
// columns take the vector store on the avx2 tier, 5 the scalar store.
TEST(LeakyProperty, GemmEpilogueMatchesBranchForm) {
  const DispatchGuard guard;
  const std::vector<float> values = leaky_inputs();
  const auto rows = static_cast<std::int64_t>(values.size());
  std::vector<float> bias, post_scale, post_bias;
  for (const float v : values) {
    const Affine a = affine_for(v);
    bias.push_back(a.x);
    post_scale.push_back(a.scale);
    post_bias.push_back(a.bias);
  }
  std::vector<std::int32_t> row_map(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    row_map[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(r);
  }
  const std::vector<std::int16_t> w(
      static_cast<std::size_t>(core::int_gemm_padded_rows(rows) * 2), 0);
  for (const std::int64_t cols : {16, 5}) {
    const std::vector<std::int16_t> x(
        static_cast<std::size_t>(core::int_gemm_ld(cols) * 2), 0);
    for (const float slope : kSlopes) {
      for (const int tier : tiers()) {
        std::vector<float> out(static_cast<std::size_t>(rows * cols));
        core::IntGemmStore store{out.data(), cols, row_map.data(), bias.data(),
                                 1.0F};
        store.post_scale = post_scale.data();
        store.post_bias = post_bias.data();
        store.leaky = true;
        store.slope = slope;
        core::int_gemm(static_cast<core::KernelTier>(tier), w.data(), x.data(),
                       {rows, 1, cols}, store);
        for (std::int64_t r = 0; r < rows; ++r) {
          const float want =
              branch_leaky(values[static_cast<std::size_t>(r)], slope);
          for (std::int64_t j = 0; j < cols; ++j) {
            EXPECT_TRUE(same_bits(out[static_cast<std::size_t>(r * cols + j)],
                                  want))
                << "v=" << values[static_cast<std::size_t>(r)]
                << " slope=" << slope << " cols=" << cols << " tier=" << tier;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace flightnn
