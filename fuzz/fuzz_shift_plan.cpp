// Fuzz harness for ShiftPlan compilation (inference/shift_plan).
//
// The input bytes are decoded as a little program that builds a bounded
// core::Decomposition -- the same structure parse_packed hands to the
// compiler when a deployment pack is loaded -- with *no* validity
// filtering: filters may be addressed out of range, signs may be arbitrary
// bytes, exponents may fall outside the config window. ShiftPlan::compile
// must either accept the decomposition or reject it with a typed
// CheckFailure; anything else (sanitizer finding, uncaught exception) is a
// crash.
//
// On success the compiled plan's structural invariants are asserted:
// filter_begin is a monotone prefix-sum table ending at entries(), and all
// per-entry streams have equal length. Every accepted plan is then adopted
// by a ShiftConv2d and by a ShiftLinear -- whose constructors pack it into
// the GEMM weight panel -- and run on one tiny image: adoption and run must
// either succeed or throw CheckFailure (element outside the layer, a
// multiplier too wide for the accumulator, bad geometry).

#include <algorithm>
#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "core/decompose.hpp"
#include "inference/shift_engine.hpp"
#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "support/check.hpp"

#include "fuzz_driver.hpp"

namespace {

using flightnn::core::Decomposition;
using flightnn::core::Pow2FilterTerm;
using flightnn::inference::QuantizedActivations;
using flightnn::inference::ShiftConv2d;
using flightnn::inference::ShiftLinear;
using flightnn::inference::ShiftLowering;
using flightnn::inference::ShiftPlan;
using flightnn::quant::Pow2Config;
using flightnn::quant::Pow2Term;

// Sequential byte reader; returns 0 past the end so every input decodes to
// *some* program (short inputs just build small decompositions).
class ByteProgram {
 public:
  ByteProgram(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return cursor_ < size_ ? data_[cursor_++] : 0; }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t cursor_ = 0;
};

// Size clamps keep per-input cost flat (the compiler is O(entries)); the
// interesting state space is in the *values*, not the counts.
constexpr int kMaxFilters = 16;
constexpr int kMaxTerms = 32;
constexpr int kMaxElements = 64;

void check_plan_invariants(const ShiftPlan& plan) {
  const auto filters = static_cast<std::size_t>(plan.filters);
  if (plan.filter_begin.size() != filters + 1) std::terminate();
  if (plan.filter_begin.front() != 0) std::terminate();
  for (std::size_t f = 0; f < filters; ++f) {
    if (plan.filter_begin[f] > plan.filter_begin[f + 1]) std::terminate();
  }
  const auto entries = static_cast<std::size_t>(plan.entries());
  if (plan.filter_begin.back() != plan.entries()) std::terminate();
  if (plan.shift.size() != entries || plan.sign.size() != entries) {
    std::terminate();
  }
}

// A deterministic [channels, side, side] image of 8-bit codes.
QuantizedActivations tiny_image(std::int64_t channels, std::int64_t side) {
  QuantizedActivations q;
  q.shape = flightnn::tensor::Shape{channels, side, side};
  for (std::int64_t i = 0; i < channels * side * side; ++i) {
    q.values.push_back(static_cast<std::int32_t>((i * 37) % 255) - 127);
  }
  return q;
}

void adopt_and_run_conv(ShiftPlan plan, const Pow2Config& config,
                        std::int64_t in_channels, std::int64_t kernel) {
  const std::int64_t filters = plan.filters;
  const ShiftConv2d engine(ShiftLowering{std::move(plan), 0},
                           {filters, in_channels, kernel, 1, kernel / 2},
                           config);
  (void)engine.run(tiny_image(in_channels, kernel));
}

void adopt_and_run_linear(ShiftPlan plan, const Pow2Config& config,
                          std::int64_t in_features) {
  const std::int64_t filters = plan.filters;
  const ShiftLinear engine(ShiftLowering{std::move(plan), 0},
                           {filters, in_features}, config);
  QuantizedActivations q = tiny_image(in_features, 1);
  q.shape = flightnn::tensor::Shape{in_features};
  (void)engine.run(q);
}

void fuzz_compile(const std::uint8_t* data, std::size_t size) {
  ByteProgram program(data, size);

  Pow2Config config;
  // Window placement is fuzzer-chosen; the [-32, 31] span covers in-range,
  // boundary, and far-out-of-range exponents relative to it.
  config.e_min = -static_cast<int>(program.u8() % 63) - 1;  // [-63, -1]
  config.e_max = config.e_min + static_cast<int>(program.u8() % 64);
  config.flush_to_zero = (program.u8() & 1) != 0;

  const int filters = static_cast<int>(program.u8() % (kMaxFilters + 1));
  const int terms = static_cast<int>(program.u8() % (kMaxTerms + 1));
  const std::int64_t in_channels = static_cast<std::int64_t>(program.u8() % 5);
  const std::int64_t kernel = static_cast<std::int64_t>(program.u8() % 8);

  Decomposition decomposition;
  decomposition.filter_k.assign(static_cast<std::size_t>(filters), 0);
  decomposition.elements_per_filter = program.i8();  // may be negative
  for (int t = 0; t < terms; ++t) {
    Pow2FilterTerm term;
    // Deliberately unclamped: out-of-range filters must be *rejected*, not
    // masked away before the compiler sees them.
    term.filter = program.i8();
    term.level = static_cast<int>(program.u8() % 4);
    const int elements = static_cast<int>(program.u8() % (kMaxElements + 1));
    term.elements.reserve(static_cast<std::size_t>(elements));
    for (int e = 0; e < elements; ++e) {
      Pow2Term w;
      w.sign = program.i8();      // arbitrary, not just {-1, 0, 1}
      w.exponent = program.i8();  // arbitrary, often outside the window
      term.elements.push_back(w);
    }
    if (term.filter >= 0 && term.filter < filters) {
      decomposition.filter_k[static_cast<std::size_t>(term.filter)] += 1;
    }
    decomposition.terms.push_back(std::move(term));
  }

  ShiftPlan plan;
  try {
    plan = ShiftPlan::compile(decomposition, config);
  } catch (const flightnn::support::CheckFailure&) {
    return;  // typed rejection: out-of-range filter/sign/shift
  }
  check_plan_invariants(plan);
  try {
    adopt_and_run_conv(plan, config, in_channels, kernel);
  } catch (const flightnn::support::CheckFailure&) {
    // typed rejection: bad geometry, element outside the layer,
    // accumulator overflow
  }
  try {
    adopt_and_run_linear(std::move(plan), config,
                         std::max<std::int64_t>(
                             1, decomposition.elements_per_filter));
  } catch (const flightnn::support::CheckFailure&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  flightnn::support::set_check_policy(flightnn::support::CheckPolicy::kThrow);
  fuzz_compile(data, size);
  return 0;
}
