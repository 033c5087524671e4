#pragma once

// Measurement plumbing shared by the benchmark's workloads: the span
// recorder (tracing around public library calls), percentile helpers, the
// process-wide allocation counter, peak RSS, and the spin calibration that
// records how many cores the host actually delivers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds from the process's benchmark epoch (fixed at first use) to
// `t`, and to now. Span timestamps are on this scale.
std::int64_t epoch_ns(Clock::time_point t);
inline std::int64_t now_ns() { return epoch_ns(Clock::now()); }

// --- Spans -----------------------------------------------------------------

// One timed interval around a public library call. `parent` is the id of
// the span that caused it (0 = root); spans of one operation share
// `request`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

// Append-only span store owned by one thread. Capacity is reserved up front
// so recording does not allocate on the measured path.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t reserve) { spans_.reserve(reserve); }
  void record(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Process-unique span id (ids from different threads never collide).
std::uint64_t next_span_id();

// RAII span: records [construction, destruction) into `buffer`. A null
// buffer makes it a no-op apart from one branch, which is how untraced
// runs use the same code.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : buffer_(buffer) {
    if (buffer_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.request = request;
    span_.id = next_span_id();
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    span_.end_ns = now_ns();
    buffer_->record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  SpanBuffer* buffer_;
  Span span_;
};

// Durations (ms) of every span called `name` across `buffers`.
std::vector<double> span_ms(const std::vector<const SpanBuffer*>& buffers,
                            const char* name);

// Write all spans as JSON lines; returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers);

// --- Statistics -------------------------------------------------------------

// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// --- Host -------------------------------------------------------------------

// Heap allocations made by any thread since process start (a counting
// global operator new is linked into the benchmark binary).
std::int64_t allocation_count();

// Process peak resident set, MiB.
double peak_rss_mib();

// CPUs this process may run on (affinity mask).
int available_cpus();

// Effective parallelism: the same fixed spin work run on 1 thread and on
// `threads` threads at once; threads * t1 / t_all. On an oversubscribed VM
// this reads well below `threads`.
double effective_cores(int threads);

}  // namespace perfbench
