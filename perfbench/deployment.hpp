#pragma once

// The production deploy path every workload starts from: a FLightNN model
// with a seeded k mix is checkpointed, exported to a .flnart artifact
// (load_state -> compile_program -> save_artifact), cold-started from that
// file (ArtifactModel::load -> BatchRunner::warm -> first logits), and then
// served. Expected logits come from a direct QuantizedNetwork::run of the
// same model compiled in memory, so every served image is checked against
// an independent route.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "inference/quantized_network.hpp"
#include "nn/sequential.hpp"
#include "runtime/batch_runner.hpp"
#include "serialize/artifact.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace fl = flightnn;

struct WorkloadSpec {
  std::string name;
  int network_id = 1;       // Table-1 network
  float width_scale = 1.0F;
  int pool_threads = 2;     // runtime pool size, fixed per workload
  std::size_t warm_batch = 1;  // images per BatchRunner::run on this path
  std::size_t images = 1;      // distinct input images
};

// Returns nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

// Filter-level k census of the installed FLightNN thresholds.
struct KMix {
  std::int64_t filters = 0;
  std::int64_t k0 = 0;
  std::int64_t k1 = 0;
  std::int64_t k2 = 0;
  std::string per_layer;  // "k0/k1/k2 " per layer, for the set-up printout

  [[nodiscard]] double mean_k() const;
  [[nodiscard]] double pruned_share() const;
};

// Everything derived from the workload seed.
struct SeedPlan {
  std::uint64_t model_seed = 0;
  std::uint64_t input_seed = 0;
};
SeedPlan seed_plan(const WorkloadSpec& spec, std::uint64_t seed);

// Build the workload's FLightNN model and set per-layer thresholds so ~10%
// of filters are pruned (k=0) and the rest split evenly between k=1 and
// k=2; which filters land where follows from the seeded weights.
std::unique_ptr<fl::nn::Sequential> build_model(const WorkloadSpec& spec,
                                                std::uint64_t model_seed,
                                                KMix* kmix);

// Unquantized float model of the same topology (the float GEMM baseline).
std::unique_ptr<fl::nn::Sequential> build_float_model(const WorkloadSpec& spec,
                                                      std::uint64_t model_seed);

fl::tensor::Shape input_shape();  // [1, 3, 32, 32]

// checkpoint -> artifact on disk. Spans: serialize.load_state,
// inference.compile, serialize.save_artifact under one cold_start.export.
void export_artifact(const WorkloadSpec& spec, std::uint64_t model_seed,
                     const std::string& checkpoint_path,
                     const std::string& artifact_path, SpanBuffer* trace,
                     std::uint64_t request);

// A servable network restarted from an artifact file.
struct ColdModel {
  std::unique_ptr<fl::serialize::ArtifactModel> artifact;
  std::unique_ptr<fl::runtime::BatchRunner> runner;
  fl::tensor::Tensor first_logits;
};

// Artifact file -> first logits. Spans: serialize.artifact_load,
// runtime.warm, inference.first_image under one cold_start.restart.
ColdModel cold_start(const std::string& artifact_path, std::size_t warm_batch,
                     const fl::tensor::Tensor& image, SpanBuffer* trace,
                     std::uint64_t request);

// Bytewise logits equality (the output gate).
bool same_logits(const fl::tensor::Tensor& logits,
                 const std::vector<float>& expected);

// One complete set-up, timed as a whole by the caller.
struct Deployment {
  KMix kmix;
  std::vector<fl::tensor::Tensor> images;
  std::vector<std::vector<float>> expected;  // per image, from the reference
  std::int64_t shifts_per_image = 0;
  std::int64_t adds_per_image = 0;
  std::uint64_t artifact_bytes = 0;
  ColdModel served;  // the artifact-loaded network the workload drives
  std::vector<double> export_ms;
  std::vector<double> cold_start_ms;
  bool correct = true;  // first logits matched the reference on every restart
};

struct Paths {
  std::string checkpoint;
  std::string artifact;
};

// Build, checkpoint, compute the expected logits, export once and
// cold-start once: everything a deployment needs before it serves.
Deployment set_up(const WorkloadSpec& spec, const SeedPlan& seeds,
                  const Paths& paths, SpanBuffer* trace);

// Time more exports and cold starts of `d`'s checkpoint, through `paths`
// (not the artifact `d` serves from): at least 8 of each, and more until
// 60 ms have passed, so small models are sampled as densely as large ones.
// Not part of the set-up time.
void sample_deploy_path(const WorkloadSpec& spec, const SeedPlan& seeds,
                        const Paths& paths, Deployment& d, SpanBuffer* trace);

}  // namespace perfbench
