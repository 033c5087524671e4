// google-benchmark microbenchmarks for the compute kernels: quantizers,
// the shift layers' exact integer GEMM (per VGG-7 geometry and tier) vs the
// float reference convolution, and the Fig. 3 decomposition. These quantify
// the CPU-side costs; the hardware win of shifts is modeled in hw/ (a CPU
// has a multiplier either way, so the CPU lowers shift layers to a dense
// int16 GEMM -- the interesting numbers are the GEMM's ns per shift and
// the quantization and decomposition overheads).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/gemm.hpp"
#include "core/decompose.hpp"
#include "core/flightnn_transform.hpp"
#include "inference/shift_engine.hpp"
#include "nn/conv2d.hpp"
#include "quant/lightnn.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace flightnn;

tensor::Tensor random_weights(std::int64_t out_ch, std::int64_t in_ch,
                              std::uint64_t seed) {
  support::Rng rng(seed);
  return tensor::Tensor::randn(tensor::Shape{out_ch, in_ch, 3, 3}, rng, 0.0F,
                               0.3F);
}

void BM_QuantizeLightNN(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  tensor::Tensor w = random_weights(64, 64, 1);
  const quant::Pow2Config config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_lightnn(w, k, config));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_QuantizeLightNN)->Arg(1)->Arg(2);

void BM_QuantizeFLightNN(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 2);
  core::FLightNNTransform transform;
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.forward(w));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_QuantizeFLightNN);

void BM_FLightNNThresholdBackward(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 3);
  core::FLightNNTransform transform;
  support::Rng rng(4);
  tensor::Tensor grad_wq = tensor::Tensor::randn(w.shape(), rng);
  tensor::Tensor grad_w(w.shape());
  for (auto _ : state) {
    transform.zero_internal_grads();
    transform.backward(w, grad_wq, grad_w);
    benchmark::DoNotOptimize(transform.threshold_grads());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_FLightNNThresholdBackward);

void BM_Decompose(benchmark::State& state) {
  tensor::Tensor w = random_weights(64, 64, 5);
  const quant::Pow2Config config;
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decompose_to_lightnn1(wq, 2, config));
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_Decompose);

void BM_ShiftEngineConv(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, k, config);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, k, config, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  // One "item" = one MAC-equivalent.
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConv)->Arg(1)->Arg(2);

// Filter-pruning payoff: the same layer with a fraction of its filters
// pruned to zero. Arg is the pruned percentage; pruned filters are not GEMM
// rows, so 50 should run close to 2x faster than 0.
void BM_ShiftEngineConvSparse(benchmark::State& state) {
  const auto pruned_percent = static_cast<std::int64_t>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  const std::int64_t pruned_filters = 32 * pruned_percent / 100;
  const std::int64_t filter_numel = 32 * 3 * 3;
  for (std::int64_t f = 0; f < pruned_filters; ++f) {
    float* row = wq.data() + f * filter_numel;
    for (std::int64_t i = 0; i < filter_numel; ++i) row[i] = 0.0F;
  }
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConvSparse)->Arg(0)->Arg(50)->Arg(90);

// One-time engine construction cost (decompose + plan lowering + panel
// packing), amortized over an engine's lifetime.
void BM_PlanCompile(benchmark::State& state) {
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(64, 64, 13);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  for (auto _ : state) {
    inference::ShiftConv2d engine(wq, 2, config, 1, 1);
    benchmark::DoNotOptimize(engine.panel().w16.data());
  }
  state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_PlanCompile);

// The seven convs of Table-1 network 1 (VGG-7/64) at full width on a 32x32
// input: {in_channels, out_channels, input side}.
struct ConvGeometry {
  std::int64_t in_channels, out_channels, side;
};
constexpr ConvGeometry kVgg7Convs[] = {{3, 8, 32},  {8, 16, 32}, {16, 16, 16},
                                       {16, 32, 16}, {32, 32, 8}, {32, 64, 8},
                                       {64, 64, 4}};

// One VGG-7 conv layer (im2col + int GEMM + fused dequantize) as production
// runs it, built from random k=2 weights.
struct Vgg7Layer {
  inference::ShiftConv2d engine;
  inference::QuantizedActivations image;
  std::int64_t macs;
};

Vgg7Layer vgg7_layer(std::size_t index) {
  const ConvGeometry& g = kVgg7Convs[index];
  const quant::Pow2Config config;
  support::Rng rng(40 + index);
  tensor::Tensor w =
      random_weights(g.out_channels, g.in_channels, 41 + index);
  tensor::Tensor img = tensor::Tensor::randn(
      tensor::Shape{g.in_channels, g.side, g.side}, rng);
  return {inference::ShiftConv2d(quant::quantize_lightnn(w, 2, config), 2,
                                 config, 1, 1),
          inference::quantize_image(img, 8),
          g.out_channels * g.in_channels * 9 * g.side * g.side};
}

// Args: {VGG-7 conv index, tier (0 = scalar, 1 = avx2)}. On a host without
// AVX2 both tiers measure the scalar GEMM. Per-layer ns/shift rows for
// both tiers land in BENCH_shift_engine.json (emit_int_gemm_rows below).
void BM_IntGemmVgg7(benchmark::State& state) {
  const Vgg7Layer layer = vgg7_layer(static_cast<std::size_t>(state.range(0)));
  core::set_kernel_tier_override(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.engine.run(layer.image));
  }
  core::set_kernel_tier_override(-1);
  state.SetItemsProcessed(state.iterations() * layer.macs);
}
BENCHMARK(BM_IntGemmVgg7)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6}, {0, 1}});

// Same shift-layer convolution with its GEMM tiles fanned out over the
// runtime pool. Arg is the thread count; Arg(1) should match
// BM_ShiftEngineConv/2 (the serial fast path) to within noise.
void BM_ShiftEngineConvParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::Rng rng(6);
  const quant::Pow2Config config;
  tensor::Tensor w = random_weights(32, 32, 7);
  tensor::Tensor wq = quant::quantize_lightnn(w, 2, config);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const auto qimg = inference::quantize_image(img, 8);
  inference::ShiftConv2d engine(wq, 2, config, 1, 1);
  runtime::set_num_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(qimg));
  }
  runtime::set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ShiftEngineConvParallel)->Arg(1)->Arg(2)->Arg(4);

// Batched float Conv2d forward (training-path kernel), parallel across the
// batch dimension. Arg is the thread count.
void BM_Conv2dForwardBatchParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  support::Rng rng(12);
  nn::Conv2d conv(16, 16, 3, 1, 1, /*with_bias=*/true, rng);
  tensor::Tensor x =
      tensor::Tensor::randn(tensor::Shape{8, 16, 16, 16}, rng);
  runtime::set_num_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
  runtime::set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * 8 * 16 * 16 * 16 * 16 * 9);
}
BENCHMARK(BM_Conv2dForwardBatchParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_ReferenceFloatConv(benchmark::State& state) {
  support::Rng rng(8);
  tensor::Tensor w = random_weights(32, 32, 9);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inference::reference_conv(w, img, 1, 1));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_ReferenceFloatConv);

void BM_Im2ColGemmConv(benchmark::State& state) {
  support::Rng rng(10);
  tensor::Tensor w = random_weights(32, 32, 11);
  tensor::Tensor img = tensor::Tensor::randn(tensor::Shape{32, 16, 16}, rng);
  const tensor::ConvGeometry geom{32, 16, 16, 3, 1, 1};
  std::vector<float> cols(
      static_cast<std::size_t>(geom.patch_size() * geom.out_h() * geom.out_w()));
  tensor::Tensor out(tensor::Shape{32, geom.out_h(), geom.out_w()});
  for (auto _ : state) {
    tensor::im2col(img.data(), geom, cols.data());
    tensor::gemm(w.data(), cols.data(), out.data(), 32, geom.patch_size(),
                 geom.out_h() * geom.out_w());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32 * 16 * 16 * 9);
}
BENCHMARK(BM_Im2ColGemmConv);

// Scalar-vs-avx2 rows per VGG-7 conv (us per layer, ns per shift of the
// paper's datapath census), spliced into the BENCH_shift_engine.json that
// throughput_scaling writes so the kernel numbers live next to the
// whole-network numbers instead of stdout-only. Both tiers must produce
// byte-identical output; falls back to a standalone file when the target
// does not exist.
int emit_int_gemm_rows(const std::string& path, bool smoke) {
  runtime::set_num_threads(1);
  const int repeats = smoke ? 5 : 25;
  // Interleaved scalar/avx2 sampling: alternating single runs so slow clock
  // drift (turbo ramp-up, VM steal time) hits both tiers equally --
  // block-wise timing systematically favors whichever tier runs later.
  const auto sample = [](int tier, const Vgg7Layer& layer) {
    core::set_kernel_tier_override(tier);
    const auto start = std::chrono::steady_clock::now();
    (void)layer.engine.run(layer.image);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
  };
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<std::string> layers;
  for (std::size_t i = 0; i < std::size(kVgg7Convs); ++i) {
    const Vgg7Layer layer = vgg7_layer(i);
    core::set_kernel_tier_override(0);
    inference::OpCounts counts;
    const tensor::Tensor scalar_out = layer.engine.run(layer.image, &counts);
    core::set_kernel_tier_override(1);
    const tensor::Tensor avx2_out = layer.engine.run(layer.image);
    if (std::memcmp(scalar_out.data(), avx2_out.data(),
                    static_cast<std::size_t>(scalar_out.numel()) *
                        sizeof(float)) != 0) {
      std::fprintf(stderr, "FATAL: scalar and avx2 GEMM outputs differ\n");
      return 1;
    }
    std::vector<double> scalar_s, avx2_s;
    for (int r = 0; r < repeats; ++r) {
      scalar_s.push_back(sample(0, layer));
      avx2_s.push_back(sample(1, layer));
    }
    const double scalar_med = median(scalar_s);
    const double avx2_med = median(avx2_s);
    const auto shifts = static_cast<double>(counts.shifts);
    const ConvGeometry& g = kVgg7Convs[i];
    bench::JsonObject row;
    row.add_int("layer", static_cast<long long>(i));
    row.add_int("in_channels", g.in_channels);
    row.add_int("out_channels", g.out_channels);
    row.add_int("side", g.side);
    row.add_number("scalar_us", scalar_med * 1e6);
    row.add_number("avx2_us", avx2_med * 1e6);
    row.add_number("scalar_ns_per_shift", scalar_med * 1e9 / shifts);
    row.add_number("avx2_ns_per_shift", avx2_med * 1e9 / shifts);
    row.add_number("avx2_speedup", scalar_med / avx2_med);
    layers.push_back(row.to_string(4));
    std::printf("vgg7 conv%zu %lldx%lld@%lld: %.1f us scalar, %.1f us avx2 "
                "(%.3f ns/shift, %.2fx)\n",
                i, static_cast<long long>(g.in_channels),
                static_cast<long long>(g.out_channels),
                static_cast<long long>(g.side), scalar_med * 1e6,
                avx2_med * 1e6, avx2_med * 1e9 / shifts, scalar_med / avx2_med);
  }
  core::set_kernel_tier_override(-1);

  bench::JsonObject rows;
  rows.add_string("vector_tier",
                  support::cpu_has_avx2() ? "avx2" : "scalar");
  rows.add_int("repeats", repeats);
  rows.add("int_gemm_vgg7", bench::json_array(layers));
  rows.add_bool("tiers_bit_identical", true);

  if (bench::merge_into_json_file(path, "kernels_microbench", rows)) {
    std::printf("merged int GEMM rows into %s\n", path.c_str());
  } else {
    bench::JsonObject out;
    out.add_string("bench", "kernels_microbench");
    out.add_string("git_sha", bench::git_sha());
    bench::add_host_info(out, core::kernel_tier_name(core::active_kernel_tier()));
    out.add("kernels_microbench", rows.to_string(2));
    const std::string fallback = "BENCH_kernels_microbench.json";
    if (!bench::write_json_file(fallback, out)) {
      std::fprintf(stderr, "FATAL: could not write %s\n", fallback.c_str());
      return 1;
    }
    std::printf("%s not found; wrote int GEMM rows to %s\n", path.c_str(),
                fallback.c_str());
  }
  return 0;
}

}  // namespace

// Custom main so CI can pass a bare `--smoke` switch (it becomes a short
// minimum measuring time, keeping the full suite under a few seconds) and
// `--bench-json PATH` (the BENCH_shift_engine.json to splice the int GEMM
// rows into; default looks in the working directory).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string bench_json = "BENCH_shift_engine.json";
  const auto json_it = std::find_if(args.begin(), args.end(), [](char* arg) {
    return std::strcmp(arg, "--bench-json") == 0;
  });
  if (json_it != args.end() && json_it + 1 != args.end()) {
    bench_json = *(json_it + 1);
    args.erase(json_it, json_it + 2);
  }
  char min_time[] = "--benchmark_min_time=0.01";
  const auto smoke = std::find_if(args.begin(), args.end(), [](char* arg) {
    return std::strcmp(arg, "--smoke") == 0;
  });
  const bool is_smoke = smoke != args.end();
  if (is_smoke) *smoke = min_time;
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_int_gemm_rows(bench_json, is_smoke);
}
