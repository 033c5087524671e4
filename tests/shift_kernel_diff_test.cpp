// Differential property suite for the integer-GEMM lowering of the shift
// layers (DESIGN.md §14): both kernel tiers must be byte-identical to the
// term-walk oracle (term_walk_oracle.hpp) under every geometry the plan
// compiler can produce -- strides, 1x1 convs without padding, output planes
// that are not a multiple of the 16-column tile, odd patch depths, k_max,
// pruning (including all-pruned layers and pruned filters with a bias),
// forced-wide layers that must take the int64 scalar route, thread counts,
// and plans adopted from an mmap-loaded artifact.
// The direct GEMM cases run core::int_gemm on exactly-sized packed buffers,
// so the ASan CI preset turns any read past a packed operand into a hard
// failure. AVX2 comparisons skip on hosts without AVX2, where the avx2 tier
// resolves to the scalar one and the comparison would be vacuous.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "grid_fixture.hpp"
#include "inference/quantized_network.hpp"
#include "inference/shift_engine.hpp"
#include "models/networks.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "term_walk_oracle.hpp"

namespace flightnn::inference {
namespace {

using core::KernelTier;
using core::set_kernel_tier_override;
using tensor::Shape;
using tensor::Tensor;

// Restores runtime dispatch on scope exit so a failing assertion cannot
// leak a pinned tier into later tests.
struct TierGuard {
  TierGuard() = default;
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
  ~TierGuard() { set_kernel_tier_override(-1); }
};

bool host_has_vector_tier() { return support::cpu_has_avx2(); }

// Tiers worth comparing on this host.
std::vector<int> tiers() {
  return host_has_vector_tier() ? std::vector<int>{0, 1} : std::vector<int>{0};
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Zero the first `filters` filter rows of an OIHW (or [out, in]) tensor.
void prune_filters(Tensor& wq, std::int64_t filters) {
  const std::int64_t row = wq.numel() / wq.shape()[0];
  for (std::int64_t f = 0; f < filters; ++f) {
    float* data = wq.data() + f * row;
    std::fill(data, data + row, 0.0F);
  }
}

// Runs `engine` on every tier and expects each output memcmp-equal to the
// term-walk oracle of the same weights.
void expect_conv_matches_oracle(const Tensor& wq, int k_max,
                                const quant::Pow2Config& config,
                                std::int64_t stride, std::int64_t padding,
                                const Tensor& bias,
                                const QuantizedActivations& q,
                                const ::testing::Message& what) {
  const TierGuard guard;
  const ShiftConv2d engine(wq, k_max, config, stride, padding, bias);
  const auto& s = wq.shape();
  const Tensor want = oracle::term_walk_conv(
      core::decompose_to_lightnn1(wq, k_max, config),
      {s[0], s[1], s[2], stride, padding}, config, q, bias);
  for (const int tier : tiers()) {
    set_kernel_tier_override(tier);
    EXPECT_TRUE(bytes_equal(engine.run(q), want)) << what << " tier=" << tier;
  }
}

// --- Engine-level sweeps ---------------------------------------------------

TEST(ShiftKernelDiffTest, ConvSweepTiersMatchOracle) {
  const quant::Pow2Config config;
  support::Rng rng(101);
  // 19x17 input: no stride/kernel/padding combination below yields an
  // output plane that is a multiple of the 16-column tile (1x1 kernels with
  // padding >= 1 add all-zero border taps). Three input channels make the
  // patch depth 3*K*K odd for every kernel, so the final K-pair is padded.
  const auto qimg = quantize_image(Tensor::randn(Shape{3, 19, 17}, rng), 8);
  for (const std::int64_t kernel : {1, 3, 5}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t padding : {0, 1, 2}) {
        for (const int k_max : {1, 2, 3}) {
          for (const bool prune : {false, true}) {
            Tensor w = Tensor::randn(Shape{6, 3, kernel, kernel}, rng, 0.0F,
                                     0.3F);
            Tensor wq = quant::quantize_lightnn(w, k_max, config);
            if (prune) prune_filters(wq, 3);
            // Pruned filters carry a nonzero bias: their planes must be the
            // exact 0 * scale + bias the oracle dequantizes.
            const Tensor bias =
                prune ? Tensor::randn(Shape{6}, rng) : Tensor();
            expect_conv_matches_oracle(
                wq, k_max, config, stride, padding, bias, qimg,
                ::testing::Message() << "k=" << kernel << " s=" << stride
                                     << " p=" << padding << " k_max=" << k_max
                                     << " prune=" << prune);
          }
        }
      }
    }
  }
}

TEST(ShiftKernelDiffTest, PointwiseConvWithoutPadding) {
  const quant::Pow2Config config;
  support::Rng rng(108);
  // 1x1, padding 0: patch rows are the channels themselves; 7 channels make
  // the depth odd and a 5x7 plane leaves a 3-column tail tile.
  for (const std::int64_t stride : {1, 2}) {
    const auto q = quantize_image(Tensor::randn(Shape{7, 5, 7}, rng), 8);
    Tensor w = Tensor::randn(Shape{9, 7, 1, 1}, rng, 0.0F, 0.3F);
    expect_conv_matches_oracle(quant::quantize_lightnn(w, 2, config), 2,
                               config, stride, 0, Tensor::randn(Shape{9}, rng),
                               q, ::testing::Message() << "1x1 s=" << stride);
  }
}

TEST(ShiftKernelDiffTest, AllPrunedLayerStoresBiasOnly) {
  const quant::Pow2Config config;
  support::Rng rng(109);
  Tensor wq(Shape{5, 2, 3, 3});  // every filter pruned
  const Tensor bias = Tensor::randn(Shape{5}, rng);
  const auto q = quantize_image(Tensor::randn(Shape{2, 6, 6}, rng), 8);
  const ShiftConv2d engine(wq, 2, config, 1, 1, bias);
  EXPECT_TRUE(engine.panel().rows.empty());
  EXPECT_EQ(engine.panel().pruned.size(), 5U);
  expect_conv_matches_oracle(wq, 2, config, 1, 1, bias, q,
                             ::testing::Message() << "all pruned");
}

// Layers outside the narrow int16/int32 envelope must take the int64 scalar
// route on every tier and still match the oracle.
TEST(ShiftKernelDiffTest, ForcedWideLayersTakeTheScalarRoute) {
  support::Rng rng(110);
  // (a) int16 weights, huge gain: a 12-level window puts unit weights at
  // 2^12, so 16-bit activations break the int32 bound.
  quant::Pow2Config wide_gain;
  wide_gain.e_min = -12;
  // (b) weights beyond int16: a 17-level window reaches 2^16.
  quant::Pow2Config wide_weights;
  wide_weights.e_min = -16;
  for (const auto& config : {wide_gain, wide_weights}) {
    Tensor w = Tensor::randn(Shape{4, 8, 3, 3}, rng, 0.0F, 1.0F);
    const Tensor wq = quant::quantize_lightnn(w, 2, config);
    const ShiftConv2d engine(wq, 2, config, 1, 1);
    const bool int16_weights = config.e_min == wide_gain.e_min;
    EXPECT_EQ(engine.panel().w16.empty(), !int16_weights);
    {
      const TierGuard guard;
      set_kernel_tier_override(1);
      EXPECT_STREQ(engine.kernel_tier(16), "scalar");
    }
    const auto q = quantize_image(Tensor::randn(Shape{8, 9, 9}, rng), 16);
    expect_conv_matches_oracle(wq, 2, config, 1, 1, {}, q,
                               ::testing::Message() << "e_min=" << config.e_min);
  }
}

TEST(ShiftKernelDiffTest, LinearSweepTiersMatchOracle) {
  const TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(102);
  // Feature counts around the K-pair step; row counts around the 4-row
  // tile. A one-column GEMM runs on the scalar tile whatever tier is set.
  for (const std::int64_t in_features : {1, 2, 3, 7, 8, 9, 31, 64}) {
    for (const std::int64_t out_features : {1, 5, 10}) {
      for (const int k_max : {1, 2}) {
        for (const bool prune : {false, true}) {
          Tensor w = Tensor::randn(Shape{out_features, in_features}, rng,
                                   0.0F, 0.3F);
          Tensor wq = quant::quantize_lightnn(w, k_max, config);
          if (prune) prune_filters(wq, out_features / 2 + 1);
          const Tensor bias = Tensor::randn(Shape{out_features}, rng);
          const auto qx = quantize_tensor(Tensor::randn(Shape{in_features}, rng), 8);
          const ShiftLinear engine(wq, k_max, config, bias);
          const Tensor want = oracle::term_walk_linear(
              core::decompose_to_lightnn1(wq, k_max, config), config, qx, bias);
          for (const int tier : tiers()) {
            set_kernel_tier_override(tier);
            EXPECT_TRUE(bytes_equal(engine.run(qx), want))
                << "in=" << in_features << " out=" << out_features
                << " k_max=" << k_max << " prune=" << prune
                << " tier=" << tier;
          }
        }
      }
    }
  }
}

// Pruning and stride do not change which tier a layer dispatches to: every
// conv is one GEMM.
TEST(ShiftKernelDiffTest, KernelTierReporting) {
  const TierGuard guard;
  const quant::Pow2Config config;
  support::Rng rng(103);
  Tensor w = Tensor::randn(Shape{8, 4, 3, 3}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor wq_pruned(wq);
  prune_filters(wq_pruned, 4);
  const ShiftConv2d dense(wq, 2, config, 1, 1);
  const ShiftConv2d pruned(wq_pruned, 2, config, 1, 1);
  const ShiftConv2d strided(wq, 2, config, 2, 1);
  EXPECT_STREQ(dense.kernel_tier(8), pruned.kernel_tier(8));
  EXPECT_STREQ(dense.kernel_tier(8), strided.kernel_tier(8));
  EXPECT_EQ(pruned.panel().rows.size(), 4U);
  set_kernel_tier_override(0);
  EXPECT_STREQ(dense.kernel_tier(8), "scalar");
  set_kernel_tier_override(1);
  EXPECT_STREQ(dense.kernel_tier(8),
               host_has_vector_tier() ? "avx2" : "scalar");
  Tensor lw = Tensor::randn(Shape{10, 64}, rng, 0.0F, 0.3F);
  const ShiftLinear linear(quant::quantize_lightnn(lw, 2, config), 2, config);
  EXPECT_STREQ(linear.kernel_tier(8), "scalar");
}

// --- Direct GEMM-kernel differentials --------------------------------------
// Packed operands in exactly-sized buffers against a naive int64 GEMM with
// the same fused store; under ASan any read past a panel aborts.

struct PackedCase {
  std::int64_t rows, depth, cols;
  std::vector<std::int64_t> w;   // [rows x depth], row-major
  std::vector<std::int16_t> x;   // [depth x cols], row-major
};

PackedCase random_case(std::int64_t rows, std::int64_t depth,
                       std::int64_t cols, std::int64_t w_range,
                       support::Rng& rng) {
  PackedCase c{rows, depth, cols, {}, {}};
  for (std::int64_t i = 0; i < rows * depth; ++i) {
    c.w.push_back(static_cast<std::int64_t>(
                      rng.uniform_index(static_cast<std::size_t>(2 * w_range + 1))) -
                  w_range);
  }
  for (std::int64_t i = 0; i < depth * cols; ++i) {
    c.x.push_back(static_cast<std::int16_t>(
        static_cast<int>(rng.uniform_index(255)) - 127));
  }
  return c;
}

template <typename T>
std::vector<T> pack_weights(const PackedCase& c) {
  const std::int64_t pairs = core::int_gemm_pairs(c.depth);
  std::vector<T> panel(static_cast<std::size_t>(
                           core::int_gemm_padded_rows(c.rows) * pairs * 2),
                       T{0});
  for (std::int64_t r = 0; r < c.rows; ++r) {
    for (std::int64_t k = 0; k < c.depth; ++k) {
      panel[static_cast<std::size_t>(core::int_gemm_weight_index(r, k, pairs))] =
          static_cast<T>(c.w[static_cast<std::size_t>(r * c.depth + k)]);
    }
  }
  return panel;
}

std::vector<std::int16_t> pack_activations(const PackedCase& c) {
  const std::int64_t ld = core::int_gemm_ld(c.cols);
  std::vector<std::int16_t> panel(
      static_cast<std::size_t>(core::int_gemm_pairs(c.depth) * ld * 2), 0);
  for (std::int64_t k = 0; k < c.depth; ++k) {
    for (std::int64_t j = 0; j < c.cols; ++j) {
      panel[static_cast<std::size_t>(((k / 2) * ld + j) * 2 + k % 2)] =
          c.x[static_cast<std::size_t>(k * c.cols + j)];
    }
  }
  return panel;
}

// Output rows are permuted through row_map and interleaved with rows the
// GEMM never writes (the pruned-filter slots), which must stay untouched.
struct StoreCase {
  std::vector<std::int32_t> row_map;
  std::vector<float> bias;
  std::vector<float> out;
  std::int64_t out_rows;
};

StoreCase make_store(const PackedCase& c, support::Rng& rng) {
  StoreCase s;
  s.out_rows = 2 * c.rows + 1;
  for (std::int64_t r = 0; r < c.rows; ++r) {
    s.row_map.push_back(static_cast<std::int32_t>(s.out_rows - 1 - 2 * r));
  }
  for (std::int64_t o = 0; o < s.out_rows; ++o) {
    s.bias.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
  }
  s.out.assign(static_cast<std::size_t>(s.out_rows * c.cols), -7.0F);
  return s;
}

std::vector<float> naive_gemm(const PackedCase& c, const StoreCase& s,
                              float scale) {
  std::vector<float> out(static_cast<std::size_t>(s.out_rows * c.cols), -7.0F);
  for (std::int64_t r = 0; r < c.rows; ++r) {
    const std::int32_t o = s.row_map[static_cast<std::size_t>(r)];
    for (std::int64_t j = 0; j < c.cols; ++j) {
      std::int64_t acc = 0;
      for (std::int64_t k = 0; k < c.depth; ++k) {
        acc += c.w[static_cast<std::size_t>(r * c.depth + k)] *
               c.x[static_cast<std::size_t>(k * c.cols + j)];
      }
      out[static_cast<std::size_t>(o * c.cols + j)] =
          static_cast<float>(acc) * scale +
          s.bias[static_cast<std::size_t>(o)];
    }
  }
  return out;
}

TEST(ShiftKernelDiffTest, IntGemmKernelDirect) {
  support::Rng rng(104);
  const float scale = 0.0078125F;
  for (const std::int64_t rows : {1, 3, 4, 5, 9}) {
    for (const std::int64_t depth : {1, 2, 3, 27, 72}) {
      for (const std::int64_t cols : {1, 2, 15, 16, 17, 33, 130}) {
        const PackedCase c = random_case(rows, depth, cols, 128, rng);
        const auto w = pack_weights<std::int16_t>(c);
        const auto x = pack_activations(c);
        const core::IntGemmShape shape{rows, core::int_gemm_pairs(depth), cols};
        for (const int tier : tiers()) {
          StoreCase s = make_store(c, rng);
          const std::vector<float> want = naive_gemm(c, s, scale);
          core::int_gemm(static_cast<KernelTier>(tier), w.data(), x.data(),
                         shape,
                         {s.out.data(), cols, s.row_map.data(), s.bias.data(),
                          scale});
          EXPECT_EQ(std::memcmp(want.data(), s.out.data(),
                                want.size() * sizeof(float)),
                    0)
              << "rows=" << rows << " depth=" << depth << " cols=" << cols
              << " tier=" << tier;
        }
      }
    }
  }
}

TEST(ShiftKernelDiffTest, IntGemmWideWeightsDirect) {
  support::Rng rng(105);
  const float scale = 0.25F;
  for (const std::int64_t cols : {1, 7, 16, 21}) {
    // Weights up to 2^40: only the int64 route can hold them.
    const PackedCase c =
        random_case(6, 11, cols, std::int64_t{1} << 40, rng);
    const auto w = pack_weights<std::int64_t>(c);
    const auto x = pack_activations(c);
    StoreCase s = make_store(c, rng);
    const std::vector<float> want = naive_gemm(c, s, scale);
    core::int_gemm(w.data(), x.data(), {6, core::int_gemm_pairs(11), cols},
                   {s.out.data(), cols, s.row_map.data(), s.bias.data(), scale});
    EXPECT_EQ(std::memcmp(want.data(), s.out.data(),
                          want.size() * sizeof(float)),
              0)
        << "cols=" << cols;
  }
}

// --- Whole network across thread counts and tiers --------------------------

std::unique_ptr<nn::Sequential> small_model() {
  return grid::grid_model(1, 0.125F, 23, 0x2545F491U);
}

TEST(ShiftKernelDiffTest, WholeNetworkThreadAndTierSweep) {
  const TierGuard guard;
  auto model = small_model();
  const auto network =
      QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  support::Rng rng(106);
  Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  set_kernel_tier_override(0);
  runtime::set_num_threads(1);
  const Tensor baseline = network.run(image);
  for (const int threads : {1, 2, 4, 7}) {
    runtime::set_num_threads(threads);
    for (const int tier : tiers()) {
      set_kernel_tier_override(tier);
      const Tensor logits = network.run(image);
      EXPECT_TRUE(bytes_equal(baseline, logits))
          << "threads=" << threads << " tier=" << tier;
    }
  }
  runtime::set_num_threads(1);
}

// --- Artifact-adopted plans ---------------------------------------------

TEST(ShiftKernelDiffTest, ArtifactPlansRunBothTiersBitIdentical) {
  const TierGuard guard;
  runtime::set_num_threads(1);
  auto model = small_model();
  const Shape input_shape{1, 3, 16, 16};
  const auto direct = QuantizedNetwork::compile(*model, input_shape);
  auto program = compile_program(*model, input_shape);
  const std::string path = ::testing::TempDir() + "/shift_kernel_diff_" +
                           std::to_string(::testing::UnitTest::GetInstance()
                                              ->random_seed()) +
                           ".flnart";
  serialize::save_artifact(program, path);
  {
    // mmap-backed load: the loader copies the plan streams out of the
    // mapping and the adopting constructors pack (and own) the GEMM panels.
    // Every tier must match the weights-built network's scalar logits byte
    // for byte.
    const serialize::ArtifactModel mapped = serialize::ArtifactModel::load(path);
    support::Rng rng(107);
    Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
    set_kernel_tier_override(0);
    const Tensor baseline = direct.run(image);
    for (const int tier : tiers()) {
      set_kernel_tier_override(tier);
      EXPECT_TRUE(bytes_equal(baseline, direct.run(image))) << tier;
      EXPECT_TRUE(bytes_equal(baseline, mapped.network().run(image))) << tier;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flightnn::inference
