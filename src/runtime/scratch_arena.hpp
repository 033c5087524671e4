#pragma once

// Per-thread scratch arena for the inference hot path, with two routes:
//
//  - Dynamic (grow-once): a fixed set of named slots, each a grow-once
//    buffer. The first batch through a network sizes every slot to its
//    high-water mark, after which repeat runs reuse the same storage and the
//    steady state performs zero heap allocations (the zero-allocation
//    contract of DESIGN.md §9, asserted by tests/arena_allocation_test).
//
//  - Planned: when a kernel passes a `PlanContext` (layout + op id), the
//    arena serves the buffer from one contiguous 64-byte-aligned block laid
//    out offline by the memory planner (DESIGN.md §15). Adopting a layout is
//    the only allocation; every fetch afterwards is an O(1) table lookup
//    into pre-assigned offsets, so there is no first-batch warmup growth at
//    all. A fetch whose planned extent is missing or too small falls back to
//    the dynamic slot and bumps `plan_misses()` -- the differential tests
//    assert zero misses, so a miss in production is a planner bug that
//    degrades to correct-but-unplanned, never to UB.
//
// Lifetime rules:
//   - Arenas are strictly thread-local; a buffer obtained from `current()`
//     must not escape the calling thread or outlive the current kernel
//     invocation (any later arena call on the same slot may resize or remap
//     and so invalidate it).
//   - Slots are owned by call sites, not by layers: two kernels may share a
//     slot only if they can never be live simultaneously on one thread.
//     Nested use of the same slot (conv calling back into something that
//     uses kPatchPanel) is a bug; slots used by nestable helpers get
//     their own ids. The planner encodes the same rule as temporal
//     disjointness of intervals.
//   - Buffers keep their high-water capacity until the thread exits. Call
//     `trim()` to return the memory (tests; long-lived threads switching
//     workloads).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/memory_plan.hpp"
#include "support/annotations.hpp"

namespace flightnn::runtime {

class ScratchArena {
 public:
  // The calling thread's arena.
  static ScratchArena& current();

  // Dynamic route: slot buffer resized to exactly `n` elements (contents
  // unspecified). Capacity only grows, so a request at or below the
  // high-water mark does not allocate -- the grow-once boundary where
  // FLIGHTNN_HOT traversal stops (the "dies out in steady state" half is
  // asserted dynamically by tests/arena_allocation_test).
  FLIGHTNN_COLD_ALLOC std::vector<std::int16_t>& i16(Scratch slot,
                                                     std::size_t n);
  FLIGHTNN_COLD_ALLOC std::vector<float>& f32(Scratch slot, std::size_t n);

  // Planned route: pointer to `n` elements for (ctx->op, slot) inside the
  // adopted arena block, valid until the next adopt_layout/trim on this
  // thread. Null or layout-less `ctx`, an unplanned (op, slot) pair, or an
  // undersized extent all fall back to the dynamic slot above (counting a
  // plan miss when a layout was present). Adoption of a not-yet-seen layout
  // happens lazily on first fetch, which is the only allocating case.
  FLIGHTNN_COLD_ALLOC std::int16_t* i16p(const PlanContext* ctx, Scratch slot,
                                         std::size_t n);
  FLIGHTNN_COLD_ALLOC float* f32p(const PlanContext* ctx, Scratch slot,
                                  std::size_t n);

  // Eagerly size this thread's block for `layout` (warm path: BatchRunner
  // calls this on every worker before the first batch so that not even the
  // lazy adoption allocates mid-inference). The block is grow-only across
  // layouts; adopting a smaller layout reuses the existing storage.
  FLIGHTNN_COLD_ALLOC void adopt_layout(const ArenaLayout& layout);

  // Capacity of the currently adopted layout (0 when none).
  [[nodiscard]] std::size_t planned_capacity_bytes() const {
    return planned_capacity_;
  }
  // Planned fetches served from the arena block / fetches that had a layout
  // but fell back dynamic. Misses are planner bugs; tests assert zero.
  [[nodiscard]] std::uint64_t planned_hits() const { return planned_hits_; }
  [[nodiscard]] std::uint64_t plan_misses() const { return plan_misses_; }
  void reset_plan_counters() {
    planned_hits_ = 0;
    plan_misses_ = 0;
  }

  // Total bytes currently reserved across all slots plus the planned block
  // (observability; feeds the BENCH_*.json memory fields).
  [[nodiscard]] std::size_t footprint_bytes() const;

  // Release all slot storage and the planned block.
  void trim();

 private:
  ScratchArena() = default;

  // Shared planned-route core: arena pointer for (ctx->op, slot) holding at
  // least `bytes`, or nullptr when the caller should use the dynamic slot.
  FLIGHTNN_COLD_ALLOC void* planned_fetch(const PlanContext* ctx, Scratch slot,
                                          std::size_t bytes);

  static constexpr std::size_t kSlots = kScratchSlotCount;
  std::vector<std::int16_t> i16_[kSlots];
  std::vector<float> f32_[kSlots];

  // Planned block. `layout_id_` (not a pointer) identifies the adopted
  // layout so a destroyed network's layout is never dereferenced: fetches
  // always go through the caller's live `ctx->layout`.
  std::unique_ptr<std::byte[]> block_;
  std::size_t block_bytes_ = 0;  // usable aligned capacity of block_
  std::byte* base_ = nullptr;    // 64-byte-aligned start within block_
  std::uint64_t layout_id_ = 0;
  std::size_t planned_capacity_ = 0;
  std::uint64_t planned_hits_ = 0;
  std::uint64_t plan_misses_ = 0;
};

}  // namespace flightnn::runtime
