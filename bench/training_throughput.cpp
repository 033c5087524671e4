// Training throughput of the GEMM fast path: train-step time of the Table-1
// CIFAR-10 network (id 1, VGG-7/64 proxy) with FLightNN quantization
// installed, measured three ways:
//   1. GEMM path vs the retained naive reference kernels, 1 thread
//      (the tentpole target: >= 3x);
//   2. thread sweep of the GEMM path (near-linear scaling at batch >= 32);
//   3. determinism: the epoch's regularizer loss must be bit-identical at
//      every thread count (fixed-block reductions, DESIGN.md §10).
//
//   $ ./bench/training_throughput [--batch N] [--steps S] [--width-scale W]
//                                 [--repeats R] [--json PATH] [--smoke]
//
// Each configuration is run --repeats times and the fastest epoch is kept:
// the kernels are deterministic, so the minimum is the run least disturbed
// by other tenants of the machine. Measurements land in BENCH_training.json
// stamped with the git revision.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/gemm.hpp"
#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "models/networks.hpp"
#include "nn/layer.hpp"
#include "runtime/thread_pool.hpp"
#include "support/argparse.hpp"
#include "support/table.hpp"

namespace {

using namespace flightnn;

struct EpochRun {
  double step_seconds = 0.0;
  core::EpochStats stats;
};

// Build a fresh model (identical weights every call: fixed build seed),
// install FLightNN, and time one training epoch. A fresh model per run keeps
// the measured work identical -- training mutates weights, so reusing one
// model would hand later runs a different optimization trajectory.
EpochRun run_epoch_once(const data::Dataset& train, std::int64_t batch,
                        float width_scale) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = width_scale;
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_flightnn(*model, core::FLightNNConfig{});

  core::TrainConfig config = bench::bench_train_config(1);
  config.epochs = 1;
  config.batch_size = batch;
  core::Trainer trainer(*model, config);

  const auto start = std::chrono::steady_clock::now();
  EpochRun run;
  run.stats = trainer.train_epoch(train);
  const auto stop = std::chrono::steady_clock::now();
  const auto steps = (train.size() + batch - 1) / batch;
  run.step_seconds = std::chrono::duration<double>(stop - start).count() /
                     static_cast<double>(steps);
  return run;
}

// Best-of-N wrapper: every repeat does identical work (fresh model, fixed
// seeds), so timing differences are pure machine noise and the minimum is
// the honest estimate. The stats are identical across repeats by
// construction; keep the ones from the fastest run.
EpochRun run_epoch(const data::Dataset& train, std::int64_t batch,
                   float width_scale, int repeats) {
  EpochRun best = run_epoch_once(train, batch, width_scale);
  for (int r = 1; r < repeats; ++r) {
    EpochRun run = run_epoch_once(train, batch, width_scale);
    if (run.step_seconds < best.step_seconds) best = run;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser parser("training_throughput",
                            "train-step time of the GEMM fast path vs the "
                            "naive reference kernels");
  parser.add_flag("--batch", "images per training batch", "32");
  parser.add_flag("--steps", "training steps per measured epoch", "8");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "1.0");
  parser.add_flag("--repeats", "timed runs per configuration; fastest kept",
                  "3");
  parser.add_flag("--json", "result file path", "BENCH_training.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  // --smoke is a bare switch: tiny dataset, for CI.
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr,
                 "%s\n%s  --smoke: CI-sized run (tiny dataset)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  const std::int64_t batch = smoke ? 8 : parser.get_int("--batch");
  const std::int64_t steps = smoke ? 2 : parser.get_int("--steps");
  const int repeats =
      smoke ? 1 : std::max(1, static_cast<int>(parser.get_int("--repeats")));
  const auto width_scale =
      static_cast<float>(smoke ? 0.25 : parser.get_double("--width-scale"));

  bench::print_preamble("training throughput (GEMM fast path)");

  data::DatasetSpec spec = data::cifar10_like();
  spec.train_size = batch * steps;
  spec.test_size = 1;  // unused; keep generation cheap
  const data::Dataset train = data::make_synthetic(spec).train;

  // --- GEMM vs reference kernels, 1 thread --------------------------------
  runtime::set_num_threads(1);
  nn::set_train_kernel_path(nn::TrainKernelPath::kReference);
  const EpochRun reference = run_epoch(train, batch, width_scale, repeats);
  nn::set_train_kernel_path(nn::TrainKernelPath::kGemm);
  const EpochRun gemm1 = run_epoch(train, batch, width_scale, repeats);
  const double kernel_speedup = reference.step_seconds / gemm1.step_seconds;
  std::printf(
      "train step, 1 thread: reference %.1f ms, GEMM %.1f ms (%.2fx)\n\n",
      reference.step_seconds * 1e3, gemm1.step_seconds * 1e3, kernel_speedup);

  // --- Thread sweep of the GEMM path --------------------------------------
  //
  // On a single-core host the sweep is expectedly flat (oversubscribed
  // threads time-slice one core); near-linear scaling only shows with real
  // cores. hardware_concurrency lands in the JSON so readers can tell the
  // two situations apart.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> sweep{1, 2, 4};
  if (hw > 4) sweep.push_back(hw);

  support::Table table({"threads", "ms/step", "img/s", "speedup vs 1",
                        "reg loss identical"});
  std::vector<std::string> sweep_json;
  double baseline_s = 0.0;
  float baseline_reg = 0.0F;
  bool deterministic = true;
  for (const int threads : sweep) {
    runtime::set_num_threads(threads);
    const EpochRun run =
        threads == 1 ? gemm1 : run_epoch(train, batch, width_scale, repeats);
    if (threads == 1) {
      baseline_s = run.step_seconds;
      baseline_reg = run.stats.mean_reg_loss;
    }
    // Bitwise, not approximate: the whole training step is built from
    // partition-invariant kernels and fixed-block reductions.
    const bool identical =
        std::memcmp(&run.stats.mean_reg_loss, &baseline_reg, sizeof(float)) ==
        0;
    deterministic = deterministic && identical;
    table.add_row({std::to_string(threads),
                   support::format_fixed(run.step_seconds * 1e3, 1),
                   support::format_fixed(static_cast<double>(batch) /
                                             run.step_seconds,
                                         1),
                   support::format_fixed(baseline_s / run.step_seconds, 2),
                   identical ? "yes" : "NO (BUG)"});
    bench::JsonObject point;
    point.add_int("threads", threads);
    point.add_number("ms_per_step", run.step_seconds * 1e3);
    point.add_number("img_per_s",
                     static_cast<double>(batch) / run.step_seconds);
    point.add_number("speedup_vs_1", baseline_s / run.step_seconds);
    point.add_bool("reg_loss_bit_identical", identical);
    sweep_json.push_back(point.to_string(2));
  }
  std::printf("batch=%lld steps=%lld width=%.2f%s\n\n%s\n",
              static_cast<long long>(batch), static_cast<long long>(steps),
              static_cast<double>(width_scale), smoke ? " (smoke)" : "",
              table.to_string().c_str());
  if (!deterministic) {
    std::fprintf(stderr,
                 "FATAL: regularizer loss differs across thread counts\n");
    return 1;
  }

  // --- Result file --------------------------------------------------------
  bench::JsonObject out;
  out.add_string("bench", "training");
  out.add_string("git_sha", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("batch", batch);
  out.add_int("steps", steps);
  out.add_int("repeats", repeats);
  out.add_int("hardware_concurrency", hw);
  out.add_number("width_scale", static_cast<double>(width_scale));
  out.add_number("reference_ms_per_step", reference.step_seconds * 1e3);
  out.add_number("gemm_ms_per_step_1thread", gemm1.step_seconds * 1e3);
  out.add_number("gemm_speedup_vs_reference_1thread", kernel_speedup);
  out.add("thread_sweep", bench::json_array(sweep_json));
  out.add_bool("reg_loss_bit_identical_across_threads", deterministic);
  bench::add_host_info(
      out, core::kernel_tier_name(core::active_kernel_tier()));
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  runtime::set_num_threads(0);
  return 0;
}
