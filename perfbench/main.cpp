// End-to-end benchmark of the FLightNN inference stack on the path
// production runs: checkpoint -> artifact export -> cold start -> serving.
// perfbench/run.py builds this binary, runs it as several processes and
// merges their output; see perfbench/README.md.
//
//   flightnn_perfbench --workload <offline_b32|serve_open|cold_start>
//                      --seed <n> --seconds <s> --trace <0|1>
//                      [--work-dir <dir>]
//
// A run alternates kSegments set-ups with measurement segments. With
// --trace 0 the last stdout line is {correct, attempted, failed, samples}:
// the raw set-up, export, cold-start and per-segment latency samples that
// run.py turns into the end-to-end metrics. With --trace 1 odd segments
// are traced (spans around the public library calls), the per-layer probes
// run, the spans are written as JSON lines into the work directory, and
// the last line is {correct, attempted, failed, metrics} with every
// per-layer metric. The exit code is nonzero when any operation's logits
// differ from the expected ones; rejected or thrown requests count as
// failed operations without failing the run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "deployment.hpp"
#include "inference/memory_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-up + measurement segments per run (setup_s is the median set-up).
constexpr int kSegments = 2;
// Shift steps reported individually (VGG-7 has 8; deeper ResNet shift
// layers sit inside residual steps, which profile() reports whole).
constexpr std::size_t kShiftLayers = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string kind_of(const std::string& step_name) {
  return step_name.substr(0, step_name.find_first_of("[("));
}

void print_array(const std::vector<double>& values) {
  std::printf("[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.10g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("]");
}

void print_arrays(const std::vector<std::vector<double>>& groups) {
  std::printf("[");
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i > 0) std::printf(",");
    print_array(groups[i]);
  }
  std::printf("]");
}

// The untraced run's raw measurements. run.py merges them across processes
// and computes the end-to-end metrics from them.
void print_samples(bool correct, const PhaseResult& all,
                   const std::vector<PhaseResult>& segments,
                   const std::vector<double>& setup_s,
                   const std::vector<std::vector<double>>& export_ms,
                   const std::vector<std::vector<double>>& cold_ms) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"samples\": {\"peak_rss_mib\": %.10g, \"setup_s\": ",
              correct ? "true" : "false",
              static_cast<long long>(all.attempted),
              static_cast<long long>(all.failed), peak_rss_mib());
  print_array(setup_s);
  std::printf(", \"export_ms\": ");
  print_arrays(export_ms);
  std::printf(", \"cold_start_ms\": ");
  print_arrays(cold_ms);
  std::printf(", \"segments\": [");
  for (std::size_t i = 0; i < segments.size(); ++i) {
    std::printf("%s{\"images\": %lld, \"seconds\": %.10g, \"latency_ms\": ",
                i == 0 ? "" : ", ",
                static_cast<long long>(segments[i].images),
                segments[i].seconds);
    print_array(segments[i].latency_ms);
    std::printf("}");
  }
  std::printf("]}}\n");
  std::fflush(stdout);
}

std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const Deployment& d,
                                  const PhaseResult& untraced,
                                  const PhaseResult& traced,
                                  const LayerProbe& probe,
                                  const std::vector<const SpanBuffer*>& spans,
                                  double cores_start, double cores_end) {
  std::vector<Metric> m;
  const bool serving = spec.name == "serve_open";
  const bool cold = spec.name == "cold_start";

  // serving: per-request RequestTiming plus ServerStats, traced phases.
  std::vector<double> queue, compute, handoff, late;
  for (const ServingSample& s : traced.serving) {
    queue.push_back(s.queue_ms);
    compute.push_back(s.compute_ms);
    handoff.push_back(s.latency_ms - s.queue_ms - s.compute_ms);
    late.push_back(s.late_ms);
  }
  const std::vector<double> submit_ms = span_ms(spans, "serving.submit");
  std::vector<double> submit_us;
  for (const double v : submit_ms) submit_us.push_back(v * 1e3);
  const double batch_images_mean =
      traced.batches > 0 ? static_cast<double>(traced.batched_images) /
                               static_cast<double>(traced.batches)
                         : 0.0;
  m.push_back({"serving.submit_us_p50", median(submit_us), "us"});
  m.push_back({"serving.submit_us_p99", percentile(submit_us, 0.99), "us"});
  m.push_back({"serving.queue_ms_p50", median(queue), "ms"});
  m.push_back({"serving.queue_ms_p99", percentile(queue, 0.99), "ms"});
  m.push_back({"serving.compute_ms_p50", median(compute), "ms"});
  m.push_back({"serving.batch_images_mean", batch_images_mean, "img"});
  m.push_back({"serving.handoff_ms_p50", median(handoff), "ms"});
  m.push_back({"serving.latency_p99_ms",
               serving ? percentile(traced.latency_ms, 0.99) : 0.0, "ms"});
  m.push_back({"serving.generator_late_ms_p99", percentile(late, 0.99), "ms"});

  // runtime: BatchRunner::run / warm, timed from outside.
  double batch_ms = 0.0;
  double images_per_batch = static_cast<double>(spec.warm_batch);
  if (serving) {
    batch_ms = median(compute);
    images_per_batch = batch_images_mean;
  } else if (cold) {
    batch_ms = median(span_ms(spans, "inference.first_image"));
  } else {
    batch_ms = median(span_ms(spans, "runtime.batch_run"));
  }
  const double fanout =
      batch_ms > 0.0 ? images_per_batch * probe.image_ms_p50 /
                           (batch_ms * spec.pool_threads)
                     : 0.0;
  const auto* plan = d.served.artifact->network().memory_plan();
  m.push_back({"runtime.batch_ms_p50", batch_ms, "ms"});
  m.push_back({"runtime.fanout_efficiency", fanout, "ratio"});
  m.push_back({"runtime.overhead_us_p50", probe.overhead_us_p50, "us"});
  m.push_back({"runtime.warm_ms", median(span_ms(spans, "runtime.warm")), "ms"});
  m.push_back({"runtime.allocs_per_op",
               untraced.timed_ops > 0
                   ? static_cast<double>(untraced.allocations) /
                         static_cast<double>(untraced.timed_ops)
                   : 0.0,
               "count"});
  m.push_back({"runtime.arena_planned_kib",
               plan != nullptr
                   ? static_cast<double>(plan->planned_per_thread_bytes()) /
                         1024.0
                   : 0.0,
               "KiB"});

  // inference: 1-thread image time, profile() rows, exact census.
  m.push_back({"inference.image_ms_p50", probe.image_ms_p50, "ms"});
  const char* kinds[] = {"shift_conv", "shift_linear", "affine", "leaky_relu",
                         "quant",      "maxpool",      "gap",    "residual"};
  double profiled_ms = 0.0;
  for (const auto& row : probe.rows) profiled_ms += row.seconds * 1e3;
  for (const char* kind : kinds) {
    double us = 0.0;
    for (const auto& row : probe.rows) {
      if (kind_of(row.name) == kind) us += row.seconds * 1e6;
    }
    m.push_back({std::string("inference.step.") + kind + "_us", us, "us"});
  }
  std::vector<const fl::inference::StepProfile*> shift_rows;
  for (const auto& row : probe.rows) {
    const std::string kind = kind_of(row.name);
    if (kind == "shift_conv" || kind == "shift_linear") {
      shift_rows.push_back(&row);
    }
  }
  for (std::size_t i = 0; i < kShiftLayers; ++i) {
    const auto* row = i < shift_rows.size() ? shift_rows[i] : nullptr;
    const std::string prefix = "inference.shift_layer" + std::to_string(i);
    m.push_back({prefix + ".us", row != nullptr ? row->seconds * 1e6 : 0.0,
                 "us"});
    m.push_back({prefix + ".ns_per_shift",
                 row != nullptr && row->shifts > 0
                     ? row->seconds * 1e9 / static_cast<double>(row->shifts)
                     : 0.0,
                 "ns"});
  }
  m.push_back({"inference.profile_coverage",
               probe.image_ms_p50 > 0.0 ? profiled_ms / probe.image_ms_p50
                                        : 0.0,
               "ratio"});
  m.push_back({"inference.shifts_per_image",
               static_cast<double>(d.shifts_per_image), "count"});
  m.push_back({"inference.adds_per_image",
               static_cast<double>(d.adds_per_image), "count"});
  m.push_back({"inference.mean_k", d.kmix.mean_k(), "terms"});
  m.push_back({"inference.pruned_filter_share", d.kmix.pruned_share(),
               "share"});
  m.push_back({"inference.compile_ms",
               median(span_ms(spans, "inference.compile")), "ms"});
  m.push_back({"inference.first_image_ms",
               median(span_ms(spans, "inference.first_image")), "ms"});

  // serialize: export and restart halves of the deploy path.
  m.push_back({"serialize.load_state_ms",
               median(span_ms(spans, "serialize.load_state")), "ms"});
  m.push_back({"serialize.save_artifact_ms",
               median(span_ms(spans, "serialize.save_artifact")), "ms"});
  m.push_back({"serialize.artifact_load_ms",
               median(span_ms(spans, "serialize.artifact_load")), "ms"});
  m.push_back({"serialize.artifact_bytes",
               static_cast<double>(d.artifact_bytes), "bytes"});

  m.push_back({"core.float_forward_img_s", probe.float_forward_img_s,
               "img/s"});
  m.push_back({"host.pool_threads", static_cast<double>(spec.pool_threads),
               "threads"});
  m.push_back({"host.effective_cores_start", cores_start, "cores"});
  m.push_back({"host.effective_cores_end", cores_end, "cores"});

  // Tracing overhead: traced minus untraced segments, as a share.
  const double thr_u = untraced.throughput_img_s();
  const double p50_u = median(untraced.latency_ms);
  m.push_back({"trace.throughput_overhead_pct",
               thr_u > 0.0 ? (thr_u - traced.throughput_img_s()) / thr_u * 100
                           : 0.0,
               "%"});
  m.push_back({"trace.latency_p50_overhead_pct",
               p50_u > 0.0 ? (median(traced.latency_ms) - p50_u) / p50_u * 100
                           : 0.0,
               "%"});
  return m;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// A deployment's outputs; every set-up with the same seed must reproduce
// the first one exactly.
struct Fingerprint {
  KMix kmix;
  std::int64_t shifts = 0;
  std::int64_t adds = 0;
  std::uint64_t artifact_bytes = 0;
  std::vector<std::vector<float>> expected;

  explicit Fingerprint(const Deployment& d)
      : kmix(d.kmix),
        shifts(d.shifts_per_image),
        adds(d.adds_per_image),
        artifact_bytes(d.artifact_bytes),
        expected(d.expected) {}
  [[nodiscard]] bool matches(const Deployment& d) const {
    return kmix.k0 == d.kmix.k0 && kmix.k1 == d.kmix.k1 &&
           kmix.k2 == d.kmix.k2 && shifts == d.shifts_per_image &&
           adds == d.adds_per_image && artifact_bytes == d.artifact_bytes &&
           expected == d.expected;
  }
};

void print_census(const Deployment& d) {
  std::printf("k mix: %lld filters, k0 %lld  k1 %lld  k2 %lld  (mean k %.4f, "
              "pruned %.4f)\n  per layer k0/k1/k2: %s\n",
              static_cast<long long>(d.kmix.filters),
              static_cast<long long>(d.kmix.k0),
              static_cast<long long>(d.kmix.k1),
              static_cast<long long>(d.kmix.k2), d.kmix.mean_k(),
              d.kmix.pruned_share(), d.kmix.per_layer.c_str());
  std::printf("op census per image: %lld shifts, %lld adds; artifact %llu "
              "bytes\n",
              static_cast<long long>(d.shifts_per_image),
              static_cast<long long>(d.adds_per_image),
              static_cast<unsigned long long>(d.artifact_bytes));
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  fl::runtime::set_num_threads(spec->pool_threads);
  const int calibration_threads = std::min(4, available_cpus());
  const double cores_start = effective_cores(calibration_threads);
  std::printf("workload %s  seed %llu  pool %d threads  seconds %.1f  "
              "trace %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              spec->pool_threads, args.seconds, args.trace ? 1 : 0);

  namespace fs = std::filesystem;
  const fs::path dir = fs::path(args.work_dir) /
                       (spec->name + "-" + std::to_string(args.seed));
  fs::create_directories(dir);
  const Paths setup_paths{(dir / "model.ckpt").string(),
                          (dir / "setup.flnart").string()};
  Context ctx;
  ctx.spec = spec;
  ctx.seeds = seed_plan(*spec, args.seed);
  ctx.op_paths = Paths{setup_paths.checkpoint, (dir / "op.flnart").string()};

  // The run alternates set-up and measurement, so set-up timings are
  // sampled across the whole run like the workload's own. With tracing,
  // odd segments are traced and even ones not; the difference is the
  // tracing overhead.
  const std::size_t reserve =
      static_cast<std::size_t>(args.seconds * 40000.0) + 1024;
  SpanBuffer setup_trace(args.trace ? 4096 : 0);
  SpanBuffer main_trace(args.trace ? reserve : 0);
  SpanBuffer aux_trace(args.trace ? reserve : 0);
  std::vector<double> setup_s;
  std::vector<std::vector<double>> export_ms, cold_ms;  // per set-up
  std::vector<PhaseResult> segments;  // untraced
  PhaseResult untraced;
  PhaseResult traced;
  std::optional<Fingerprint> first;
  Deployment served;
  bool correct = true;
  for (int s = 0; s < kSegments; ++s) {
    const bool traced_segment = args.trace && s % 2 == 1;
    served = Deployment{};  // unmap before set_up rewrites the artifact
    const auto start = Clock::now();
    served = set_up(*spec, ctx.seeds, setup_paths,
                    traced_segment ? &setup_trace : nullptr);
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    sample_deploy_path(*spec, ctx.seeds, ctx.op_paths, served,
                       traced_segment ? &setup_trace : nullptr);
    export_ms.push_back(served.export_ms);
    cold_ms.push_back(served.cold_start_ms);
    correct = correct && served.correct;
    if (!first) {
      first.emplace(served);
      print_census(served);
    } else if (!first->matches(served)) {
      std::fprintf(stderr, "set-up %d differs from set-up 0 (same seed)\n", s);
      correct = false;
    }
    ctx.deployment = &served;
    ctx.first_segment = s == 0;
    const double seconds = args.seconds / kSegments;
    if (traced_segment) {
      traced.append(run_phase(ctx, seconds, Tracing{&main_trace, &aux_trace}));
    } else {
      segments.push_back(run_phase(ctx, seconds, Tracing{}));
      untraced.append(segments.back());
    }
  }

  if (!args.trace) {
    if (spec->name == "cold_start") {  // every operation is a sample
      export_ms.clear();
      cold_ms.clear();
      for (const PhaseResult& segment : segments) {
        export_ms.push_back(segment.export_ms);
        cold_ms.push_back(segment.cold_start_ms);
      }
    }
    std::printf("host: %d pool threads, effective cores %.2f (start) %.2f "
                "(end)\n",
                spec->pool_threads, cores_start,
                effective_cores(calibration_threads));
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    SpanBuffer probe_trace(4096);
    const LayerProbe probe = probe_layers(ctx, &probe_trace);
    const std::vector<const SpanBuffer*> spans = {&setup_trace, &main_trace,
                                                  &aux_trace, &probe_trace};
    const double cores_end = effective_cores(calibration_threads);
    metrics = layer_metrics(*spec, served, untraced, traced, probe, spans,
                            cores_start, cores_end);
    const fs::path span_file =
        fs::path(args.work_dir) /
        (spec->name + "-" + std::to_string(args.seed) + ".spans.jsonl");
    if (!write_spans(span_file.string(), spans)) {
      std::fprintf(stderr, "cannot write %s\n", span_file.c_str());
      return 1;
    }
    std::printf("spans: %s\n", span_file.c_str());
  }
  PhaseResult all = untraced;
  all.append(traced);
  correct = correct && all.mismatched == 0 && all.attempted > 0;

  served = Deployment{};
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  if (args.trace) {
    print_result(correct, all.attempted, all.failed, metrics);
  } else {
    print_samples(correct, all, segments, setup_s, export_ms, cold_ms);
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: flightnn_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
