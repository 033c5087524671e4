#include "workloads.hpp"

#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "runtime/inference_request.hpp"
#include "runtime/thread_pool.hpp"
#include "serving/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using fl::runtime::InferenceRequest;
using fl::runtime::InferenceResult;
using fl::tensor::Tensor;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// offline_b32: one client, each operation one
// BatchRunner::run of a prebuilt request into a reused result.
PhaseResult run_closed_loop(Context& ctx, double seconds,
                            const Tracing& tracing) {
  const WorkloadSpec& spec = *ctx.spec;
  Deployment& d = *ctx.deployment;
  const auto& runner = *d.served.runner;
  std::vector<InferenceRequest> requests;
  std::vector<std::size_t> first_image;
  for (std::size_t i = 0; i + spec.warm_batch <= d.images.size();
       i += spec.warm_batch) {
    InferenceRequest request;
    for (std::size_t j = 0; j < spec.warm_batch; ++j) {
      request.images.push_back(d.images[i + j]);
    }
    requests.push_back(std::move(request));
    first_image.push_back(i);
  }
  InferenceResult result;
  PhaseResult phase;
  phase.latency_ms.reserve(1 << 16);

  const auto one_op = [&](std::size_t op, bool timed) {
    const std::size_t r = op % requests.size();
    requests[r].id = op;
    const auto start = Clock::now();
    {
      const ScopedSpan span(timed ? tracing.main : nullptr,
                            "runtime.batch_run", 0, op);
      runner.run(requests[r], result);
    }
    const auto end = Clock::now();
    bool ok = result.logits.size() == spec.warm_batch;
    for (std::size_t j = 0; ok && j < spec.warm_batch; ++j) {
      ok = same_logits(result.logits[j], d.expected[first_image[r] + j]);
    }
    ++phase.attempted;
    if (!ok) {
      ++phase.failed;
      ++phase.mismatched;
    }
    if (timed) {
      ++phase.timed_ops;
      phase.latency_ms.push_back(ms_between(start, end));
      if (ok) phase.images += static_cast<std::int64_t>(spec.warm_batch);
    }
  };

  // Untimed warm-up: lazy pool growth and first-touch of every request.
  std::size_t op = 0;
  for (; op < requests.size(); ++op) one_op(op, false);

  const auto alloc_start = allocation_count();
  const auto start = Clock::now();
  const auto end = start + seconds_to_duration(seconds);
  while (Clock::now() < end) one_op(op++, true);
  phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  phase.allocations = allocation_count() - alloc_start;
  return phase;
}

// serve_open: one generator thread sends on a fixed absolute schedule; a
// collector thread redeems the futures in order and timestamps each result
// against the time its request was due.
PhaseResult run_serving(Context& ctx, double seconds, const Tracing& tracing) {
  Deployment& d = *ctx.deployment;
  fl::serving::Server server(*d.served.runner, fl::serving::ServerConfig{});

  struct Pending {
    std::future<InferenceResult> future;
    Clock::time_point due;
    std::uint64_t id = 0;
    std::size_t first_image = 0;
    std::size_t count = 0;
    double late_ms = 0.0;
    bool timed = false;
  };
  // The process's first second of serving grows the heap (request copies
  // made on this thread are freed into the batcher's buffer pool), which
  // is start-up cost, not steady state; later segments need only a short
  // warm-up for the new Server.
  const double warmup_s = ctx.first_segment ? 1.0 : 0.1;
  const auto interval = seconds_to_duration(1.0 / kServeRequestsPerSecond);
  const auto total = static_cast<std::size_t>(
      (seconds + warmup_s) * kServeRequestsPerSecond + 2.0);
  std::vector<Pending> slots(total);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t published = 0;    // guarded by mutex; written by the generator
  bool generator_done = false;  // guarded by mutex

  PhaseResult collected;
  collected.serving.reserve(total);
  std::thread collector([&] {
    for (std::size_t next = 0;; ++next) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return published > next || generator_done; });
        if (published <= next) break;
      }
      Pending& p = slots[next];
      ++collected.attempted;
      InferenceResult result;
      try {
        result = p.future.get();
      } catch (const std::exception&) {
        ++collected.failed;
        continue;
      }
      const auto ready = Clock::now();
      bool ok = result.logits.size() == p.count;
      for (std::size_t j = 0; ok && j < p.count; ++j) {
        ok = same_logits(result.logits[j],
                         d.expected[(p.first_image + j) % d.images.size()]);
      }
      if (!ok) {
        ++collected.failed;
        ++collected.mismatched;
        continue;
      }
      if (tracing.aux != nullptr && p.timed) {
        Span span;
        span.name = "serving.request";
        span.start_ns = epoch_ns(p.due);
        span.end_ns = epoch_ns(ready);
        span.id = next_span_id();
        span.request = p.id;
        tracing.aux->record(span);
      }
      if (!p.timed) continue;
      ServingSample s;
      s.latency_ms = ms_between(p.due, ready);
      s.queue_ms = result.timing.queue_seconds * 1e3;
      s.compute_ms = result.timing.compute_seconds * 1e3;
      s.late_ms = p.late_ms;
      s.batch_size = result.timing.batch_size;
      collected.serving.push_back(s);
      collected.latency_ms.push_back(s.latency_ms);
      collected.images += static_cast<std::int64_t>(p.count);
      ++collected.timed_ops;
    }
  });

  // Stops the collector; runs on every exit path so the thread is always
  // joined before the state it uses goes away.
  const auto finish = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      generator_done = true;
    }
    cv.notify_one();
    collector.join();
  };

  // Seeded request-size mix (1-4 images), identical for a given seed.
  fl::support::Rng rng(ctx.seeds.input_seed);
  std::int64_t rejected = 0;
  std::size_t cursor = 0;
  std::int64_t alloc_start = 0;
  bool counting = false;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto timed_from = start + seconds_to_duration(warmup_s);
  try {
    for (std::size_t i = 0; i < total; ++i) {
      const auto due = start + static_cast<Clock::rep>(i) * interval;
      if (due >= timed_from + seconds_to_duration(seconds)) break;
      const std::size_t count = 1 + rng.uniform_index(4);
      InferenceRequest request;
      request.id = i;
      for (std::size_t j = 0; j < count; ++j) {
        request.images.push_back(d.images[(cursor + j) % d.images.size()]);
      }
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      if (due >= timed_from && !counting) {
        counting = true;
        alloc_start = allocation_count();
      }
      fl::serving::Server::Submission submission;
      {
        const ScopedSpan span(due >= timed_from ? tracing.main : nullptr,
                              "serving.submit", 0, i);
        submission = server.submit(std::move(request));
      }
      if (submission.status != fl::serving::SubmitStatus::Ok) {
        ++rejected;
        cursor += count;
        continue;
      }
      Pending& slot = slots[published];
      slot.future = std::move(submission.result);
      slot.due = due;
      slot.id = i;
      slot.first_image = cursor;
      slot.count = count;
      slot.late_ms = ms_between(due, sent);
      slot.timed = due >= timed_from;
      cursor += count;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        ++published;
      }
      cv.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  const auto drained = Clock::now();
  server.shutdown();
  const auto stats = server.stats();

  PhaseResult phase = std::move(collected);
  phase.attempted += rejected;
  phase.failed += rejected;
  phase.allocations = allocation_count() - alloc_start;
  phase.seconds = std::chrono::duration<double>(drained - timed_from).count();
  phase.batches = stats.batches;
  for (std::size_t k = 0; k < stats.batch_size_histogram.size(); ++k) {
    phase.batched_images +=
        static_cast<std::int64_t>(k) * stats.batch_size_histogram[k];
  }
  return phase;
}

// cold_start: each operation exports the checkpoint to an artifact, then
// restarts from that file to first logits.
PhaseResult run_cold_start(Context& ctx, double seconds,
                           const Tracing& tracing) {
  const WorkloadSpec& spec = *ctx.spec;
  Deployment& d = *ctx.deployment;
  PhaseResult phase;
  const auto one_op = [&](std::size_t op, bool timed) {
    SpanBuffer* trace = timed ? tracing.main : nullptr;
    const std::size_t image = op % d.images.size();
    const auto start = Clock::now();
    export_artifact(spec, ctx.seeds.model_seed, ctx.op_paths.checkpoint,
                    ctx.op_paths.artifact, trace, op);
    const auto exported = Clock::now();
    const ColdModel cold = cold_start(ctx.op_paths.artifact, spec.warm_batch,
                                      d.images[image], trace, op);
    const auto end = Clock::now();
    const bool ok = same_logits(cold.first_logits, d.expected[image]);
    ++phase.attempted;
    if (!ok) {
      ++phase.failed;
      ++phase.mismatched;
    }
    if (!timed) return;
    ++phase.timed_ops;
    if (ok) ++phase.images;
    phase.latency_ms.push_back(ms_between(start, end));
    phase.export_ms.push_back(ms_between(start, exported));
    phase.cold_start_ms.push_back(ms_between(exported, end));
  };
  std::size_t op = 0;
  for (; op < 3; ++op) one_op(op, false);
  const auto alloc_start = allocation_count();
  const auto start = Clock::now();
  const auto end = start + seconds_to_duration(seconds);
  while (Clock::now() < end) one_op(op++, true);
  phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  phase.allocations = allocation_count() - alloc_start;
  return phase;
}

}  // namespace

void PhaseResult::append(const PhaseResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatched += other.mismatched;
  images += other.images;
  timed_ops += other.timed_ops;
  seconds += other.seconds;
  allocations += other.allocations;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  export_ms.insert(export_ms.end(), other.export_ms.begin(),
                   other.export_ms.end());
  cold_start_ms.insert(cold_start_ms.end(), other.cold_start_ms.begin(),
                       other.cold_start_ms.end());
  serving.insert(serving.end(), other.serving.begin(), other.serving.end());
  batches += other.batches;
  batched_images += other.batched_images;
}

PhaseResult run_phase(Context& ctx, double seconds, const Tracing& tracing) {
  const std::string& name = ctx.spec->name;
  if (name == "serve_open") return run_serving(ctx, seconds, tracing);
  if (name == "cold_start") return run_cold_start(ctx, seconds, tracing);
  return run_closed_loop(ctx, seconds, tracing);
}

LayerProbe probe_layers(Context& ctx, SpanBuffer* trace) {
  const WorkloadSpec& spec = *ctx.spec;
  Deployment& d = *ctx.deployment;
  const auto& network = d.served.artifact->network();
  const auto& runner = *d.served.runner;
  LayerProbe probe;

  // BatchRunner overhead on one image, at the workload's pool size:
  // interleaved pairs so clock drift cancels.
  {
    InferenceRequest request = InferenceRequest::from_image(d.images[0]);
    InferenceResult result;
    runner.run(request, result);
    std::vector<double> diffs_us;
    const auto deadline = Clock::now() + std::chrono::milliseconds(200);
    for (std::uint64_t i = 0; i < 400 && Clock::now() < deadline; ++i) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(trace, "inference.run", 0, i);
        const Tensor logits = network.run(d.images[0]);
      }
      const auto t1 = Clock::now();
      {
        const ScopedSpan span(trace, "runtime.batch_run_1", 0, i);
        runner.run(request, result);
      }
      const auto t2 = Clock::now();
      diffs_us.push_back((ms_between(t1, t2) - ms_between(t0, t1)) * 1e3);
    }
    probe.overhead_us_p50 = median(diffs_us);
  }

  // Float GEMM eval forward of the same topology, batch 32.
  {
    auto model = build_float_model(spec, ctx.seeds.model_seed);
    fl::support::Rng rng(ctx.seeds.input_seed ^ 0xF10A7ULL);
    const Tensor batch = Tensor::randn(fl::tensor::Shape{32, 3, 32, 32}, rng);
    (void)model->forward(batch, false);
    std::vector<double> ms;
    const auto deadline = Clock::now() + std::chrono::milliseconds(300);
    for (std::uint64_t i = 0; i < 5 || (i < 30 && Clock::now() < deadline);
         ++i) {
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(trace, "core.float_forward", 0, i);
        (void)model->forward(batch, false);
      }
      ms.push_back(ms_between(t0, Clock::now()));
    }
    probe.float_forward_img_s = 32.0 / (median(ms) * 1e-3);
  }

  // Engine cost of one image without any runtime parallelism.
  fl::runtime::set_num_threads(1);
  {
    (void)network.run(d.images[0]);
    std::vector<double> ms;
    const auto deadline = Clock::now() + std::chrono::milliseconds(250);
    for (std::uint64_t i = 0; i < 10 || (i < 400 && Clock::now() < deadline);
         ++i) {
      const Tensor& image = d.images[i % d.images.size()];
      const auto t0 = Clock::now();
      {
        const ScopedSpan span(trace, "inference.image", 0, i);
        const Tensor logits = network.run(image);
      }
      ms.push_back(ms_between(t0, Clock::now()));
    }
    probe.image_ms_p50 = median(ms);
    const ScopedSpan span(trace, "inference.profile", 0, 0);
    probe.rows = network.profile(d.images[0], 5);
  }
  fl::runtime::set_num_threads(spec.pool_threads);
  return probe;
}

}  // namespace perfbench
