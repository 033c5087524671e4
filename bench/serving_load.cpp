// Open-loop load generator for the serving runtime: sweeps offered QPS
// against a serving::Server and reports the traffic-shaped metrics the
// ROADMAP's "millions of users" north star needs -- p50/p95/p99 latency,
// reject rate under admission control, achieved vs offered throughput,
// saturation throughput, and the dynamic-batch-size histogram the batcher
// actually executed. Open loop means arrivals follow a fixed schedule
// derived from the offered rate regardless of completions, so queueing
// delay shows up in the latency percentiles instead of silently throttling
// the generator (the FINN-R-style deployment view of quantized inference).
//
//   $ ./bench/serving_load [--threads N] [--max-batch B] [--delay-ms D]
//                          [--queue Q] [--duration S] [--width-scale S]
//                          [--json PATH] [--smoke]
//
// Offered rates are chosen relative to a measured capacity estimate (one
// full max_batch request timed directly on the BatchRunner), so the sweep
// brackets saturation on any machine. Requests carry 1-4 images, cycling,
// to mimic production per-client payloads. Results land in
// BENCH_serving.json stamped with the git revision.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/gemm.hpp"
#include "core/quantize_model.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "serving/server.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace flightnn;
using Clock = std::chrono::steady_clock;

double percentile(std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0.0;
  const auto n = static_cast<double>(sorted_values.size());
  auto index = static_cast<std::size_t>(std::ceil(p * n)) - 1;
  index = std::min(index, sorted_values.size() - 1);
  return sorted_values[index];
}

struct LevelResult {
  double offered_frac = 0.0;
  double offered_request_s = 0.0;
  double offered_img_s = 0.0;
  std::int64_t offered = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  double reject_rate = 0.0;
  double achieved_img_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  std::vector<std::int64_t> batch_histogram;
};

// Drive one offered-QPS level against a fresh server. The generator thread
// is the calling thread: submissions follow the precomputed schedule and
// never wait on completions (open loop); futures are redeemed afterwards.
LevelResult run_level(const runtime::BatchRunner& runner,
                      const serving::ServerConfig& config,
                      const std::vector<runtime::InferenceRequest>& templates,
                      double offered_request_s, double duration_s) {
  serving::Server server(runner, config);
  const auto interarrival =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered_request_s));

  std::vector<std::future<runtime::InferenceResult>> futures;
  std::vector<double> request_images;
  LevelResult level;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(duration_s));
  std::int64_t i = 0;
  for (;;) {
    const auto arrival = start + i * interarrival;
    if (arrival >= end) break;
    std::this_thread::sleep_until(arrival);
    const auto& source =
        templates[static_cast<std::size_t>(i) % templates.size()];
    runtime::InferenceRequest request;
    request.id = static_cast<std::uint64_t>(i);
    request.images = source.images;  // tensor copies draw from the pool
    ++level.offered;
    auto submission = server.submit(std::move(request));
    if (submission.status == serving::SubmitStatus::Ok) {
      ++level.accepted;
      futures.push_back(std::move(submission.result));
      request_images.push_back(
          static_cast<double>(source.images.size()));
    } else {
      ++level.rejected;
    }
    ++i;
  }

  // Redeem every accepted future; latency is the per-request queue wait
  // plus the fused batch's compute time, as reported by the result itself.
  std::vector<double> latencies_ms;
  latencies_ms.reserve(futures.size());
  double completed_images = 0.0;
  for (std::size_t f = 0; f < futures.size(); ++f) {
    const runtime::InferenceResult result = futures[f].get();
    latencies_ms.push_back((result.timing.queue_seconds +
                            result.timing.compute_seconds) *
                           1e3);
    completed_images += request_images[f];
  }
  const auto drained = Clock::now();
  server.shutdown();

  const auto stats = server.stats();
  const double wall = std::chrono::duration<double>(drained - start).count();
  level.offered_request_s = offered_request_s;
  level.reject_rate =
      level.offered > 0
          ? static_cast<double>(level.rejected) /
                static_cast<double>(level.offered)
          : 0.0;
  level.achieved_img_s = wall > 0.0 ? completed_images / wall : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  level.p50_ms = percentile(latencies_ms, 0.50);
  level.p95_ms = percentile(latencies_ms, 0.95);
  level.p99_ms = percentile(latencies_ms, 0.99);
  level.batch_histogram = stats.batch_size_histogram;
  std::int64_t batched_images = 0;
  for (std::size_t k = 0; k < level.batch_histogram.size(); ++k) {
    batched_images +=
        static_cast<std::int64_t>(k) * level.batch_histogram[k];
  }
  level.mean_batch = stats.batches > 0
                         ? static_cast<double>(batched_images) /
                               static_cast<double>(stats.batches)
                         : 0.0;
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser parser("serving_load",
                            "open-loop QPS sweep against the serving runtime");
  parser.add_flag("--threads", "runtime pool size (0 = env/hardware default)",
                  "0");
  parser.add_flag("--max-batch", "dynamic batcher flush size (images)", "8");
  parser.add_flag("--delay-ms", "dynamic batcher flush deadline (ms)", "2");
  parser.add_flag("--queue", "admission bound (queued images)", "64");
  parser.add_flag("--duration", "seconds of offered load per level", "2");
  parser.add_flag("--width-scale", "channel-width multiplier of network 1",
                  "0.25");
  parser.add_flag("--json", "result file path", "BENCH_serving.json");
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto smoke_it = std::find(args.begin(), args.end(), "--smoke");
  const bool smoke = smoke_it != args.end();
  if (smoke) args.erase(smoke_it);
  if (!parser.parse(args)) {
    std::fprintf(stderr,
                 "%s\n%s  --smoke: CI-sized run (short levels, 2-point sweep)\n",
                 parser.error().c_str(), parser.usage().c_str());
    return 1;
  }
  runtime::set_num_threads(parser.get_int("--threads"));
  const double duration_s =
      smoke ? 0.3 : parser.get_double("--duration");
  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.5, 1.2}
            : std::vector<double>{0.2, 0.5, 0.8, 1.1, 1.5};

  serving::ServerConfig config;
  config.max_batch = parser.get_int("--max-batch");
  config.max_queue_delay_s = parser.get_double("--delay-ms") * 1e-3;
  config.max_queue_images =
      static_cast<std::size_t>(parser.get_int("--queue"));

  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = static_cast<float>(parser.get_double("--width-scale"));
  build.seed = 1;
  auto model = models::build_network(models::table1_network(1), build);
  core::install_lightnn(*model, 2);
  const auto network = inference::QuantizedNetwork::compile(
      *model, tensor::Shape{1, 3, 32, 32});
  const runtime::BatchRunner runner(network);

  // Request templates: 1-4 images each, cycling, seeded once.
  support::Rng rng(2);
  std::vector<runtime::InferenceRequest> templates;
  double images_per_request = 0.0;
  for (int t = 0; t < 8; ++t) {
    runtime::InferenceRequest request;
    const int images = t % 4 + 1;
    for (int i = 0; i < images; ++i) {
      request.images.push_back(
          tensor::Tensor::randn(tensor::Shape{3, 32, 32}, rng));
    }
    images_per_request += images;
    templates.push_back(std::move(request));
  }
  images_per_request /= static_cast<double>(templates.size());

  // Capacity estimate: one full max_batch request timed directly on the
  // runner (median of repeats). The sweep offers fractions of this, so it
  // brackets saturation on fast and slow machines alike.
  runtime::InferenceRequest probe;
  for (int i = 0; i < config.max_batch; ++i) {
    probe.images.push_back(
        tensor::Tensor::randn(tensor::Shape{3, 32, 32}, rng));
  }
  runtime::InferenceResult probe_result;
  runner.run(probe, probe_result);  // warm-up
  std::vector<double> probe_samples;
  const int probe_repeats = smoke ? 3 : 9;
  for (int r = 0; r < probe_repeats; ++r) {
    runner.run(probe, probe_result);
    probe_samples.push_back(probe_result.timing.compute_seconds);
  }
  std::sort(probe_samples.begin(), probe_samples.end());
  const double batch_seconds = probe_samples[probe_samples.size() / 2];
  const double capacity_img_s =
      static_cast<double>(config.max_batch) / batch_seconds;
  runtime::InferenceRequest single;
  single.images.push_back(probe.images[0]);
  runtime::InferenceResult single_result;
  runner.run(single, single_result);
  runner.run(single, single_result);
  const double single_image_ms =
      single_result.timing.compute_seconds * 1e3;

  std::printf(
      "serving config: threads=%d max_batch=%d max_queue_delay=%.1fms "
      "queue_bound=%zu images\n",
      runtime::num_threads(), config.max_batch,
      config.max_queue_delay_s * 1e3, config.max_queue_images);
  std::printf(
      "capacity estimate: %.1f img/s (full batch of %d in %.2f ms); "
      "single image %.2f ms\n\n",
      capacity_img_s, config.max_batch, batch_seconds * 1e3,
      single_image_ms);

  support::Table table({"offered img/s", "frac", "achieved img/s", "p50 ms",
                        "p95 ms", "p99 ms", "reject %", "mean batch"});
  std::vector<std::string> sweep_json;
  double saturation_img_s = 0.0;
  for (const double frac : fractions) {
    const double offered_img_s = capacity_img_s * frac;
    const double offered_request_s = offered_img_s / images_per_request;
    const LevelResult level =
        run_level(runner, config, templates, offered_request_s, duration_s);
    saturation_img_s = std::max(saturation_img_s, level.achieved_img_s);
    table.add_row({support::format_fixed(offered_img_s, 1),
                   support::format_fixed(frac, 2),
                   support::format_fixed(level.achieved_img_s, 1),
                   support::format_fixed(level.p50_ms, 2),
                   support::format_fixed(level.p95_ms, 2),
                   support::format_fixed(level.p99_ms, 2),
                   support::format_fixed(level.reject_rate * 100.0, 1),
                   support::format_fixed(level.mean_batch, 2)});

    bench::JsonObject point;
    point.add_number("offered_frac", frac);
    point.add_number("offered_img_per_s", offered_img_s);
    point.add_number("offered_request_per_s", offered_request_s);
    point.add_int("offered", level.offered);
    point.add_int("accepted", level.accepted);
    point.add_int("rejected", level.rejected);
    point.add_number("reject_rate", level.reject_rate);
    point.add_number("achieved_img_per_s", level.achieved_img_s);
    point.add_number("p50_ms", level.p50_ms);
    point.add_number("p95_ms", level.p95_ms);
    point.add_number("p99_ms", level.p99_ms);
    point.add_number("mean_batch", level.mean_batch);
    std::vector<std::string> histogram;
    for (const std::int64_t count : level.batch_histogram) {
      histogram.push_back(std::to_string(count));
    }
    point.add("batch_size_histogram", bench::json_array(histogram));
    sweep_json.push_back(point.to_string(2));
  }

  std::printf("%s\nsaturation throughput: %.1f img/s%s\n",
              table.to_string().c_str(), saturation_img_s,
              smoke ? " (smoke)" : "");

  bench::JsonObject out;
  out.add_string("bench", "serving");
  out.add_string("git_sha", bench::git_sha());
  out.add_bool("smoke", smoke);
  out.add_int("threads", runtime::num_threads());
  out.add_int("max_batch", config.max_batch);
  out.add_number("max_queue_delay_ms", config.max_queue_delay_s * 1e3);
  out.add_int("max_queue_images",
              static_cast<long long>(config.max_queue_images));
  out.add_number("duration_s_per_level", duration_s);
  out.add_number("width_scale", parser.get_double("--width-scale"));
  out.add_number("images_per_request_mean", images_per_request);
  out.add_number("capacity_est_img_per_s", capacity_img_s);
  out.add_number("single_image_ms", single_image_ms);
  out.add("qps_sweep", bench::json_array(sweep_json));
  out.add_number("saturation_img_per_s", saturation_img_s);
  bench::add_host_info(
      out, core::kernel_tier_name(core::active_kernel_tier()));
  const std::string json_path = parser.get("--json");
  if (!bench::write_json_file(json_path, out)) {
    std::fprintf(stderr, "FATAL: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
