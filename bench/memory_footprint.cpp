// Memory footprint of the planned-arena runtime (DESIGN.md §15): the
// offline memory plan's claimed bytes vs what execution actually consumes.
// A Table-1 CIFAR-10 network runs twice over the same inputs -- once on the
// planned arena (the default), once with planning disabled (the dynamic
// grow-once oracle) -- and the bench records:
//
//   - planned arena capacity vs the arena block the planned run actually
//     allocated (must agree within alignment slack), and that every planned
//     fetch hit its extent (plan_misses == 0),
//   - the dynamic arena's grow-once high-water for the same program, i.e.
//     what the plan's temporal packing saves over one-buffer-per-slot,
//   - planned vs dynamic whole-network throughput (interleaved A/B; the
//     plan removes bookkeeping, so planned must not be slower),
//   - bit-identity of planned and dynamic logits at 1 and 4 threads (the
//     plan moves bytes, never values),
//   - process peak RSS at cold start, after compile, and at steady state
//     (getrusage; the whole-process view the OS bills).
//
//   $ ./bench/memory_footprint [--batch N] [--repeats R] [--width-scale S]
//                              [--json PATH] [--smoke]
//
// Measurements land in BENCH_memory.json stamped with the git revision.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/gemm.hpp"
#include "core/quantize_model.hpp"
#include "inference/memory_plan.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace flightnn;

bool bitwise_equal(const std::vector<tensor::Tensor>& a,
                   const std::vector<tensor::Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) !=
        0) {
      return false;
    }
  }
  return true;
}

// Steady-state img/s: one warm-up batch, then timed repeats into a reused
// result.
double throughput(const runtime::BatchRunner& runner,
                  const runtime::InferenceRequest& request, int repeats,
                  runtime::InferenceResult& result) {
  runner.run(request, result);
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) runner.run(request, result);
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count() / repeats;
  return static_cast<double>(request.images.size()) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser parser("memory_footprint",
                            "planned-arena bytes vs measured footprint");
  parser.add_flag("--batch", "images per inference batch", "32");
  parser.add_flag("--repeats", "timed repetitions per configuration", "5");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "0.25");
  parser.add_flag("--json", "result file path", "BENCH_memory.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr,
                 "%s\n%s  --smoke: CI-sized run (tiny batch, one repeat)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  const std::int64_t batch = smoke ? 4 : parser.get_int("--batch");
  const int repeats = smoke ? 1 : parser.get_int("--repeats");

  const long long rss_cold_kib = bench::peak_rss_kib();

  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = static_cast<float>(parser.get_double("--width-scale"));
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);

  runtime::set_num_threads(1);
  // Planned network (the default route) and its dynamic-arena twin, compiled
  // from the same model with planning forced off. Same program, same
  // engines; only where scratch bytes live differs.
  const auto planned = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, 3, 32, 32});
  inference::set_memory_planning_override(0);
  const auto dynamic = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, 3, 32, 32});
  inference::set_memory_planning_override(-1);
  if (planned.memory_plan() == nullptr ||
      dynamic.memory_plan() != nullptr) {
    std::fprintf(stderr, "FATAL: planning override did not take\n");
    return 1;
  }
  const inference::MemoryPlan& plan = *planned.memory_plan();
  const long long rss_compiled_kib = bench::peak_rss_kib();

  const runtime::BatchRunner planned_runner(planned);
  const runtime::BatchRunner dynamic_runner(dynamic);

  support::Rng rng(2);
  runtime::InferenceRequest request;
  request.images.reserve(static_cast<std::size_t>(batch));
  for (std::int64_t i = 0; i < batch; ++i) {
    request.images.push_back(
        tensor::Tensor::randn(tensor::Shape{3, 32, 32}, rng));
  }

  // --- Dynamic high-water (grow-once, one buffer per slot) -----------------
  // Measured before any planned run touches this thread's arena, so the
  // footprint is purely the dynamic slots.
  runtime::InferenceResult dyn_result;
  dynamic_runner.run(request, dyn_result);
  const std::size_t dynamic_high_water =
      runtime::ScratchArena::current().footprint_bytes();

  // --- Planned block, measured -------------------------------------------
  // Trim the arena so the planned run's footprint is the planned block
  // alone; every fetch must hit its planned extent.
  runtime::ScratchArena::current().trim();
  runtime::ScratchArena::current().reset_plan_counters();
  runtime::InferenceResult plan_result;
  planned_runner.run(request, plan_result);
  const std::size_t planned_measured =
      runtime::ScratchArena::current().footprint_bytes();
  const std::uint64_t hits = runtime::ScratchArena::current().planned_hits();
  const std::uint64_t misses = runtime::ScratchArena::current().plan_misses();
  if (misses != 0 || hits == 0) {
    std::fprintf(stderr,
                 "FATAL: planned fetches missed their extents "
                 "(%llu hits, %llu misses)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses));
    return 1;
  }
  if (!bitwise_equal(plan_result.logits, dyn_result.logits)) {
    std::fprintf(stderr, "FATAL: planned logits differ from dynamic\n");
    return 1;
  }
  const std::size_t planned_capacity = plan.arena_capacity_bytes();
  // The arena block is the capacity plus one alignment pad (and footprint
  // accounting adds the pad once more); anything beyond that slack means
  // the plan under-claimed.
  const double measured_over_planned =
      planned_capacity == 0
          ? 1.0
          : static_cast<double>(planned_measured) /
                static_cast<double>(planned_capacity);
  const std::size_t alignment_slack = 2 * runtime::kArenaAlignment;
  if (planned_measured > planned_capacity + alignment_slack) {
    std::fprintf(stderr,
                 "FATAL: planned arena measured %zu bytes, plan claimed %zu "
                 "(+%zu slack)\n",
                 planned_measured, planned_capacity, alignment_slack);
    return 1;
  }

  // --- Logits identity across thread counts --------------------------------
  std::vector<std::string> identity_json;
  for (const int threads : {1, 4}) {
    runtime::set_num_threads(threads);
    runtime::InferenceResult a, b;
    planned_runner.run(request, a);
    dynamic_runner.run(request, b);
    const bool identical = bitwise_equal(a.logits, b.logits);
    bench::JsonObject point;
    point.add_int("threads", threads);
    point.add_bool("planned_dynamic_bit_identical", identical);
    identity_json.push_back(point.to_string(2));
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: planned vs dynamic logits differ at %d threads\n",
                   threads);
      return 1;
    }
  }

  // --- Throughput A/B (1 thread, interleaved) ------------------------------
  runtime::set_num_threads(1);
  runtime::InferenceResult scratch_result;
  double planned_img_s = 0.0, dynamic_img_s = 0.0;
  const int rounds = smoke ? 1 : 3;
  for (int r = 0; r < rounds; ++r) {
    planned_img_s = std::max(
        planned_img_s, throughput(planned_runner, request, repeats,
                                  scratch_result));
    dynamic_img_s = std::max(
        dynamic_img_s, throughput(dynamic_runner, request, repeats,
                                  scratch_result));
  }
  const double planned_speedup = planned_img_s / dynamic_img_s;
  const long long rss_steady_kib = bench::peak_rss_kib();

  // --- Report --------------------------------------------------------------
  const auto kib = [](std::size_t bytes) {
    return static_cast<double>(bytes) / 1024.0;
  };
  support::Table table({"quantity", "bytes", "KiB"});
  table.add_row({"planned arena capacity", std::to_string(planned_capacity),
                 support::format_fixed(kib(planned_capacity), 1)});
  table.add_row({"planned arena measured", std::to_string(planned_measured),
                 support::format_fixed(kib(planned_measured), 1)});
  table.add_row({"dynamic high-water", std::to_string(dynamic_high_water),
                 support::format_fixed(kib(dynamic_high_water), 1)});
  table.add_row({"activation peak",
                 std::to_string(plan.activation_peak_bytes()),
                 support::format_fixed(kib(plan.activation_peak_bytes()), 1)});
  table.add_row({"quant scratch peak", std::to_string(plan.quant_peak_bytes()),
                 support::format_fixed(kib(plan.quant_peak_bytes()), 1)});
  table.add_row({"planned per-thread total",
                 std::to_string(plan.planned_per_thread_bytes()),
                 support::format_fixed(kib(plan.planned_per_thread_bytes()),
                                       1)});
  std::printf("batch=%lld repeats=%d%s\n\n%s\n",
              static_cast<long long>(batch), repeats, smoke ? " (smoke)" : "",
              table.to_string().c_str());
  std::printf("planned fetches: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  std::printf("measured/planned arena ratio: %.3f (alignment slack only)\n",
              measured_over_planned);
  std::printf(
      "throughput (1 thread): planned %.1f img/s vs dynamic %.1f img/s "
      "(%.2fx)\n",
      planned_img_s, dynamic_img_s, planned_speedup);
  std::printf(
      "peak RSS: %lld KiB cold -> %lld KiB compiled -> %lld KiB steady "
      "(cold-start delta %lld KiB)\n",
      rss_cold_kib, rss_compiled_kib, rss_steady_kib,
      rss_steady_kib - rss_cold_kib);
  std::printf("planned vs dynamic logits bit-identical at 1 and 4 threads\n");

  // --- Result file ---------------------------------------------------------
  const char* active_tier =
      core::kernel_tier_name(core::active_kernel_tier());
  bench::JsonObject out;
  out.add_string("bench", "memory");
  out.add_string("git_sha", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("batch", batch);
  out.add_int("repeats", repeats);
  out.add_number("width_scale", parser.get_double("--width-scale"));
  out.add_int("planned_arena_capacity_bytes",
              static_cast<long long>(planned_capacity));
  out.add_int("planned_arena_measured_bytes",
              static_cast<long long>(planned_measured));
  out.add_number("measured_over_planned_ratio", measured_over_planned);
  out.add_int("dynamic_arena_high_water_bytes",
              static_cast<long long>(dynamic_high_water));
  out.add_int("activation_peak_bytes",
              static_cast<long long>(plan.activation_peak_bytes()));
  out.add_int("quant_peak_bytes",
              static_cast<long long>(plan.quant_peak_bytes()));
  out.add_int("planned_per_thread_bytes",
              static_cast<long long>(plan.planned_per_thread_bytes()));
  out.add_int("planned_fetch_hits", static_cast<long long>(hits));
  out.add_int("planned_fetch_misses", static_cast<long long>(misses));
  out.add_number("planned_img_per_s_1thread", planned_img_s);
  out.add_number("dynamic_img_per_s_1thread", dynamic_img_s);
  out.add_number("planned_speedup_vs_dynamic", planned_speedup);
  out.add("thread_identity", bench::json_array(identity_json));
  out.add_int("rss_cold_kib", rss_cold_kib);
  out.add_int("rss_compiled_kib", rss_compiled_kib);
  out.add_int("rss_steady_kib", rss_steady_kib);
  out.add_int("rss_cold_start_delta_kib", rss_steady_kib - rss_cold_kib);
  bench::add_host_info(out, active_tier);
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
