#include "bench_support.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string_view>
#include <thread>

// Counting global allocator: every heap allocation in the process, from any
// thread and from inside the library, bumps one relaxed counter.
namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::int64_t epoch_ns(Clock::time_point t) {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> span_ms(const std::vector<const SpanBuffer*>& buffers,
                            const char* name) {
  std::vector<double> out;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      if (std::string_view(span.name) == name) out.push_back(span.ms());
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& s : buffer->spans()) {
      std::fprintf(file,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(file) == 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::int64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  }
  return std::max(1, CPU_COUNT(&set));
}

namespace {

// A fixed amount of dependent integer work (~10 ms on one core).
std::uint64_t spin(std::uint64_t seed) {
  std::uint64_t x = seed | 1U;
  for (int i = 0; i < 4'000'000; ++i) {
    x ^= x << 13U;
    x ^= x >> 7U;
    x ^= x << 17U;
  }
  return x;
}

double spin_seconds(int threads) {
  std::vector<std::uint64_t> sink(static_cast<std::size_t>(threads));
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      sink[static_cast<std::size_t>(t)] =
          spin(static_cast<std::uint64_t>(t) + 1U);
    });
  }
  for (auto& thread : pool) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  volatile std::uint64_t keep = 0;
  for (const std::uint64_t v : sink) keep = keep + v;
  return elapsed;
}

}  // namespace

double effective_cores(int threads) {
  // Best of three for each side: the calibration asks what the host can
  // deliver, so transient preemption is filtered out.
  double one = 1e300;
  double all = 1e300;
  for (int r = 0; r < 3; ++r) {
    one = std::min(one, spin_seconds(1));
    all = std::min(all, spin_seconds(threads));
  }
  return static_cast<double>(threads) * one / all;
}

}  // namespace perfbench
