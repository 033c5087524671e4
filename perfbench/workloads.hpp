#pragma once

// The four workload loops and the per-layer probes of the traced run.
// Every operation's logits are compared bytewise with the set-up's
// expected values; a mismatch, a rejected submit or a thrown future counts
// as a failed operation, and a mismatch also makes the run incorrect.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "deployment.hpp"
#include "inference/quantized_network.hpp"

namespace perfbench {

// Fixed absolute offered load of serve_open, in requests per second
// (mean 2.5 images each). It is never derived from a capacity probe, so
// every commit is offered the same traffic. When the benchmark was defined,
// on a 4-vCPU x86-64 VM with AVX2 kernels, the default Server on 2 pool
// threads sustained ~375 req/s while the host delivered its 4 cores. That
// host also spends stretches of seconds delivering about one core, when
// capacity falls to roughly 190 req/s. At 250 req/s those stretches built
// a backlog, shed requests at admission and tripled p90 latency. 125 req/s
// is two thirds of the capacity the host sustains through those stretches.
constexpr double kServeRequestsPerSecond = 125.0;

struct ServingSample {
  double latency_ms = 0.0;  // scheduled send -> logits in hand
  double queue_ms = 0.0;    // RequestTiming::queue_seconds
  double compute_ms = 0.0;  // RequestTiming::compute_seconds
  double late_ms = 0.0;     // how late the generator sent it
  std::int64_t batch_size = 0;
};

struct PhaseResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;      // mismatched, rejected or thrown
  std::int64_t mismatched = 0;  // logits differ from the expected ones
  std::int64_t images = 0;  // images delivered by timed operations
  std::int64_t timed_ops = 0;
  double seconds = 0.0;     // timed window
  std::int64_t allocations = 0;
  std::vector<double> latency_ms;      // one per timed operation
  std::vector<double> export_ms;       // cold_start only
  std::vector<double> cold_start_ms;   // cold_start only
  std::vector<ServingSample> serving;  // serve_open only
  std::int64_t batches = 0;            // serve_open: ServerStats
  std::int64_t batched_images = 0;

  void append(const PhaseResult& other);
  [[nodiscard]] double throughput_img_s() const {
    return seconds > 0.0 ? static_cast<double>(images) / seconds : 0.0;
  }
};

// Span buffers for the traced phases: `main` belongs to the driving
// thread, `aux` to serve_open's collector thread. Null = untraced.
struct Tracing {
  SpanBuffer* main = nullptr;
  SpanBuffer* aux = nullptr;
};

struct Context {
  const WorkloadSpec* spec = nullptr;
  Deployment* deployment = nullptr;
  SeedPlan seeds;
  Paths op_paths;  // files cold_start operations rewrite
  bool first_segment = false;  // first measurement of this process
};

// Run the workload for `seconds` (plus a short untimed warm-up).
PhaseResult run_phase(Context& ctx, double seconds, const Tracing& tracing);

// Per-layer numbers measured outside the workload loop, each around public
// calls: 1-thread image time and profile() rows, BatchRunner-vs-direct
// overhead at the workload's pool size, and the float forward baseline.
struct LayerProbe {
  double image_ms_p50 = 0.0;
  double overhead_us_p50 = 0.0;
  double float_forward_img_s = 0.0;
  std::vector<fl::inference::StepProfile> rows;
};
LayerProbe probe_layers(Context& ctx, SpanBuffer* trace);

}  // namespace perfbench
