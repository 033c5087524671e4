#pragma once

// Per-thread scratch arena for the inference hot path: a fixed set of named
// slots, each one grow-only, 64-byte-aligned buffer. The first request
// above a slot's capacity reallocates it; every request at or below it is a
// pointer return, so steady-state runs perform zero heap allocations (the
// zero-allocation contract of DESIGN.md §9, asserted by
// tests/arena_allocation_test). MemoryPlan::warm_thread reserves the patch
// panel slot to the plan's peak up front, so a warmed thread does not grow
// it at the compiled geometry at all (DESIGN.md §15); a larger input grows
// it once.
//
// Lifetime rules:
//   - Arenas are strictly thread-local; a buffer obtained from `current()`
//     must not escape the calling thread or outlive the current kernel
//     invocation (any later request on the same slot may reallocate it).
//   - Slots are owned by call sites, not by layers: two kernels may share a
//     slot only if they can never be live simultaneously on one thread.
//     Nested use of the same slot (conv calling back into something that
//     uses kPatchPanel) is a bug; slots used by nestable helpers get
//     their own ids.
//   - Buffers keep their high-water capacity until the thread exits. Call
//     `trim()` to return the memory (tests; long-lived threads switching
//     workloads).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "support/annotations.hpp"

namespace flightnn::runtime {

// Slot ids for per-thread scratch. One per independent scratch use; two call
// sites may share a slot only if they can never be live simultaneously on
// one thread (see the lifetime rules above).
enum class Scratch : std::size_t {
  kPatchPanel = 0,  // int16 K-pair activation panel of a shift layer's GEMM
  kGemmPackA,       // f32 packed A micro-panels (core/gemm)
  kSlotCount,
};

// Every slot buffer starts on, and is sized in multiples of, this boundary,
// so any scalar or SIMD kernel can assume a cache-line-aligned start.
inline constexpr std::size_t kArenaAlignment = 64;

inline constexpr std::size_t align_up(std::size_t n) {
  return (n + (kArenaAlignment - 1)) & ~(kArenaAlignment - 1);
}

class ScratchArena {
 public:
  // The calling thread's arena.
  static ScratchArena& current();

  // Pointer to at least `n` elements of the slot (contents unspecified: no
  // value-initialization, the caller writes before it reads). Capacity only
  // grows, so a request at or below the high-water mark does not allocate
  // -- the grow-once boundary where FLIGHTNN_HOT traversal stops (the "dies
  // out in steady state" half is asserted dynamically by
  // tests/arena_allocation_test).
  FLIGHTNN_COLD_ALLOC std::int16_t* i16(Scratch slot, std::size_t n) {
    return static_cast<std::int16_t*>(reserve(slot, n * sizeof(std::int16_t)));
  }
  FLIGHTNN_COLD_ALLOC float* f32(Scratch slot, std::size_t n) {
    return static_cast<float*>(reserve(slot, n * sizeof(float)));
  }

  // Grow the slot to at least `bytes` (warm path) and return its start.
  FLIGHTNN_COLD_ALLOC void* reserve(Scratch slot, std::size_t bytes);

  // Total bytes currently reserved across all slots (observability; feeds
  // the BENCH_*.json memory fields).
  [[nodiscard]] std::size_t footprint_bytes() const;

  // Release all slot storage.
  void trim();

 private:
  ScratchArena() = default;

  struct AlignedDelete {
    void operator()(void* p) const {
      ::operator delete[](p, std::align_val_t{kArenaAlignment});
    }
  };
  struct Slot {
    std::unique_ptr<void, AlignedDelete> data;
    std::size_t bytes = 0;
  };
  Slot slots_[static_cast<std::size_t>(Scratch::kSlotCount)];
};

}  // namespace flightnn::runtime
