#include "deployment.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "core/flightnn_transform.hpp"
#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "models/networks.hpp"
#include "quant/pow2.hpp"
#include "runtime/inference_request.hpp"
#include "serialize/model_io.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using fl::tensor::Shape;
using fl::tensor::Tensor;

// Why each workload exists is recorded in BENCHMARK.json; the geometry here
// is the part the library sees.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // VGG-7/64 at full width, 32-image batches fanned out over 2 threads.
      {"offline_b32", 1, 1.0F, 2, 32, 32},
      // ResNet-18/128 at width 0.125 (the golden-artifact geometry) behind
      // the default Server; batcher + 1 worker.
      {"serve_open", 2, 0.125F, 2, 8, 32},
      // Same ResNet; export + restart per operation on the calling thread.
      {"cold_start", 2, 0.125F, 1, 1, 8},
  };
  return specs;
}

// Threshold midway between two sorted norms, so the split sits at an exact
// filter count whatever float rounding does to the norms.
float split_threshold(const std::vector<double>& sorted, std::size_t below) {
  if (below == 0) return 0.0F;
  if (below >= sorted.size()) return static_cast<float>(sorted.back() * 2.0);
  return static_cast<float>(0.5 * (sorted[below - 1] + sorted[below]));
}

double filter_norm(const float* values, std::int64_t count) {
  double sum = 0.0;
  for (std::int64_t e = 0; e < count; ++e) {
    sum += static_cast<double>(values[e]) * values[e];
  }
  return std::sqrt(sum);
}

// Fixed shares: the k mix is a property of every input, not a knob the
// seed turns, so throughput stays comparable across seeds.
constexpr double kPrunedShare = 0.10;
constexpr double kK2ShareOfKept = 0.50;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Exports and cold starts timed per set-up (see sample_deploy_path).
constexpr std::size_t kMinSamples = 8;
constexpr double kMinSampleMs = 60.0;
constexpr std::size_t kMaxSamples = 200;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

double KMix::mean_k() const {
  return filters > 0 ? static_cast<double>(k1 + 2 * k2) /
                           static_cast<double>(filters)
                     : 0.0;
}

double KMix::pruned_share() const {
  return filters > 0 ? static_cast<double>(k0) / static_cast<double>(filters)
                     : 0.0;
}

SeedPlan seed_plan(const WorkloadSpec& spec, std::uint64_t seed) {
  std::uint64_t salt = 0;
  for (const char c : spec.name) salt = salt * 131U + static_cast<unsigned char>(c);
  fl::support::Rng rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  SeedPlan plan;
  plan.model_seed = rng.next_u64() | 1U;
  plan.input_seed = rng.next_u64() | 1U;
  return plan;
}

Shape input_shape() { return Shape{1, 3, 32, 32}; }

std::unique_ptr<fl::nn::Sequential> build_float_model(
    const WorkloadSpec& spec, std::uint64_t model_seed) {
  fl::models::BuildOptions build;
  build.classes = 10;
  build.width_scale = spec.width_scale;
  build.seed = model_seed;
  build.act_bits = 0;
  return fl::models::build_network(fl::models::table1_network(spec.network_id),
                                   build);
}

namespace {

std::unique_ptr<fl::nn::Sequential> build_flightnn(const WorkloadSpec& spec,
                                                   std::uint64_t model_seed) {
  fl::models::BuildOptions build;
  build.classes = 10;
  build.width_scale = spec.width_scale;
  build.seed = model_seed;
  auto model = fl::models::build_network(
      fl::models::table1_network(spec.network_id), build);
  fl::core::install_flightnn(*model, fl::core::FLightNNConfig{});
  return model;
}

}  // namespace

std::unique_ptr<fl::nn::Sequential> build_model(const WorkloadSpec& spec,
                                                std::uint64_t model_seed,
                                                KMix* kmix) {
  auto model = build_flightnn(spec, model_seed);
  KMix mix;
  for (const auto& layer : fl::core::quantizable_layers(*model)) {
    auto* transform =
        dynamic_cast<fl::core::FLightNNTransform*>(layer.transform);
    if (transform == nullptr) {
      throw std::runtime_error("perfbench: layer without a FLightNN transform");
    }
    const Tensor& w = layer.weight->value;
    const std::int64_t filters = w.shape()[0];
    const std::int64_t per_filter = w.numel() / filters;
    const auto& pow2 = transform->config().pow2;

    std::vector<double> norms;
    for (std::int64_t i = 0; i < filters; ++i) {
      norms.push_back(filter_norm(w.data() + i * per_filter, per_filter));
    }
    std::vector<double> sorted = norms;
    std::sort(sorted.begin(), sorted.end());
    const auto pruned = static_cast<std::size_t>(
        std::lround(kPrunedShare * static_cast<double>(filters)));
    const float t0 = split_threshold(sorted, pruned);

    // Level-1 residual norms of the surviving filters: r = w - R(w).
    std::vector<double> residual_norms;
    std::vector<float> residual(static_cast<std::size_t>(per_filter));
    for (std::int64_t i = 0; i < filters; ++i) {
      if (norms[static_cast<std::size_t>(i)] <= t0) continue;
      const float* f = w.data() + i * per_filter;
      for (std::int64_t e = 0; e < per_filter; ++e) {
        residual[static_cast<std::size_t>(e)] =
            f[e] - fl::quant::round_to_pow2(f[e], pow2).value();
      }
      residual_norms.push_back(filter_norm(residual.data(), per_filter));
    }
    std::sort(residual_norms.begin(), residual_norms.end());
    const auto k1 = static_cast<std::size_t>(std::lround(
        (1.0 - kK2ShareOfKept) * static_cast<double>(residual_norms.size())));
    transform->set_thresholds({t0, split_threshold(residual_norms, k1)});

    std::int64_t counts[3] = {0, 0, 0};
    for (const int k : transform->filter_k(w)) ++counts[std::clamp(k, 0, 2)];
    mix.filters += filters;
    mix.k0 += counts[0];
    mix.k1 += counts[1];
    mix.k2 += counts[2];
    mix.per_layer += std::to_string(counts[0]) + "/" +
                     std::to_string(counts[1]) + "/" +
                     std::to_string(counts[2]) + " ";
  }
  if (kmix != nullptr) *kmix = mix;
  return model;
}

void export_artifact(const WorkloadSpec& spec, std::uint64_t model_seed,
                     const std::string& checkpoint_path,
                     const std::string& artifact_path, SpanBuffer* trace,
                     std::uint64_t request) {
  const ScopedSpan root(trace, "cold_start.export", 0, request);
  auto model = build_flightnn(spec, model_seed);
  {
    const ScopedSpan span(trace, "serialize.load_state", root.id(), request);
    fl::serialize::load_state(*model, checkpoint_path);
  }
  fl::inference::NetworkProgram program;
  {
    const ScopedSpan span(trace, "inference.compile", root.id(), request);
    program = fl::inference::compile_program(*model, input_shape());
  }
  const ScopedSpan span(trace, "serialize.save_artifact", root.id(), request);
  fl::serialize::save_artifact(program, artifact_path);
}

ColdModel cold_start(const std::string& artifact_path, std::size_t warm_batch,
                     const Tensor& image, SpanBuffer* trace,
                     std::uint64_t request) {
  const ScopedSpan root(trace, "cold_start.restart", 0, request);
  ColdModel cold;
  {
    const ScopedSpan span(trace, "serialize.artifact_load", root.id(), request);
    cold.artifact = std::make_unique<fl::serialize::ArtifactModel>(
        fl::serialize::ArtifactModel::load(artifact_path));
  }
  cold.runner =
      std::make_unique<fl::runtime::BatchRunner>(cold.artifact->network());
  {
    const ScopedSpan span(trace, "runtime.warm", root.id(), request);
    cold.runner->warm(warm_batch);
  }
  const ScopedSpan span(trace, "inference.first_image", root.id(), request);
  fl::runtime::InferenceResult result =
      cold.runner->run(fl::runtime::InferenceRequest::from_image(image));
  cold.first_logits = std::move(result.logits.at(0));
  return cold;
}

bool same_logits(const Tensor& logits, const std::vector<float>& expected) {
  return static_cast<std::size_t>(logits.numel()) == expected.size() &&
         std::memcmp(logits.data(), expected.data(),
                     expected.size() * sizeof(float)) == 0;
}

Deployment set_up(const WorkloadSpec& spec, const SeedPlan& seeds,
                  const Paths& paths, SpanBuffer* trace) {
  Deployment d;
  auto model = build_model(spec, seeds.model_seed, &d.kmix);
  fl::serialize::save_state(*model, paths.checkpoint);

  fl::support::Rng rng(seeds.input_seed);
  for (std::size_t i = 0; i < spec.images; ++i) {
    d.images.push_back(Tensor::randn(Shape{3, 32, 32}, rng));
  }
  const auto reference =
      fl::inference::QuantizedNetwork::compile(*model, input_shape());
  for (std::size_t i = 0; i < d.images.size(); ++i) {
    fl::inference::NetworkOpCounts counts;
    const Tensor logits = reference.run(d.images[i], &counts);
    d.expected.emplace_back(logits.data(), logits.data() + logits.numel());
    if (i == 0) {
      d.shifts_per_image = counts.shifts;
      d.adds_per_image = counts.adds;
    }
  }
  model.reset();

  auto start = Clock::now();
  export_artifact(spec, seeds.model_seed, paths.checkpoint, paths.artifact,
                  trace, 0);
  d.export_ms.push_back(ms_since(start));
  d.artifact_bytes = std::filesystem::file_size(paths.artifact);
  start = Clock::now();
  d.served = cold_start(paths.artifact, spec.warm_batch, d.images[0], trace, 0);
  d.cold_start_ms.push_back(ms_since(start));
  d.correct = same_logits(d.served.first_logits, d.expected[0]);
  return d;
}

void sample_deploy_path(const WorkloadSpec& spec, const SeedPlan& seeds,
                        const Paths& paths, Deployment& d, SpanBuffer* trace) {
  const auto more = [](std::size_t taken, Clock::time_point first) {
    return taken < kMinSamples ||
           (ms_since(first) < kMinSampleMs && taken < kMaxSamples);
  };
  for (const auto first = Clock::now(); more(d.export_ms.size(), first);) {
    const auto start = Clock::now();
    export_artifact(spec, seeds.model_seed, paths.checkpoint, paths.artifact,
                    trace, 0);
    d.export_ms.push_back(ms_since(start));
  }
  for (const auto first = Clock::now(); more(d.cold_start_ms.size(), first);) {
    const auto start = Clock::now();
    const ColdModel cold =
        cold_start(paths.artifact, spec.warm_batch, d.images[0], trace, 0);
    d.cold_start_ms.push_back(ms_since(start));
    d.correct = d.correct && same_logits(cold.first_logits, d.expected[0]);
  }
}

}  // namespace perfbench
