#pragma once

// Arena-layout substrate for the offline memory planner (DESIGN.md §15).
// This header owns the *mechanics* of planned scratch memory -- buffer
// intervals, the greedy best-fit interval coloring that assigns byte offsets,
// and the immutable `ArenaLayout` a compiled plan carries -- while the
// *analysis* that produces intervals from a NetworkProgram lives one layer up
// in src/inference/memory_plan.{hpp,cpp}. Keeping the mechanics here (below
// flightnn_inference in the link graph) lets ScratchArena adopt a layout
// without the threadpool library ever depending on the inference IR.
//
// Layout model: every planned buffer is a `BufferInterval` -- a (slot, op)
// keyed request for `bytes` that is live over the inclusive op range
// [def_op, last_use_op]. Two intervals may share bytes iff their live ranges
// are temporally disjoint; `assign_arena_offsets` packs them into one
// 64-byte-aligned arena whose capacity is the plan's exact scratch peak.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flightnn::runtime {

// Slot ids for per-thread scratch. One per independent scratch use; two call
// sites may share a slot only if they can never be live simultaneously on
// one thread (see scratch_arena.hpp for the full lifetime rules). The enum
// lives here so both the arena (dynamic path) and the planner (planned path)
// key buffers the same way.
enum class Scratch : std::size_t {
  kPatchPanel = 0,  // int16 K-pair activation panel of a shift layer's GEMM
  kGemmPackA,       // f32 packed A micro-panels (core/gemm)
  kSlotCount,
};

inline constexpr std::size_t kScratchSlotCount =
    static_cast<std::size_t>(Scratch::kSlotCount);

// All planned offsets and extents are multiples of this, so any scalar or
// SIMD kernel can assume its buffer starts on a cache-line boundary and no
// two buffers false-share a line.
inline constexpr std::size_t kArenaAlignment = 64;

inline constexpr std::size_t align_up(std::size_t n) {
  return (n + (kArenaAlignment - 1)) & ~(kArenaAlignment - 1);
}

// Sentinel for "no planned placement" (interval not yet colored, or lookup
// miss for an (op, slot) the plan never recorded).
inline constexpr std::size_t kUnassignedOffset =
    static_cast<std::size_t>(-1);

// One planned buffer: a scratch request by op `op` for slot `slot`, live
// over the inclusive op interval [def_op, last_use_op]. `bytes` is the exact
// request; the colorer rounds placements up to kArenaAlignment internally.
struct BufferInterval {
  std::uint32_t op = 0;            // op whose kernel fetches this buffer
  Scratch slot = Scratch::kPatchPanel;
  std::size_t bytes = 0;
  std::uint32_t def_op = 0;        // first op at which the buffer is live
  std::uint32_t last_use_op = 0;   // last op at which the buffer is live
  std::size_t offset = kUnassignedOffset;  // assigned by the colorer
};

// Greedy best-fit interval-graph coloring: sort intervals by size
// (descending, ties broken by def time then op for determinism), then place
// each into the smallest 64-byte-aligned gap among the already-placed
// intervals whose live ranges overlap it, extending the arena when no gap
// fits. Fills every `offset` in place and returns the arena capacity in
// bytes (64-byte aligned). Postconditions the property tests assert:
// temporally-overlapping intervals occupy disjoint byte ranges, and capacity
// equals the peak over ops of the aligned sum of live bytes or better --
// never worse than sum-of-all.
std::size_t assign_arena_offsets(std::vector<BufferInterval>& intervals);

// Immutable planned layout for one compiled network: the colored intervals
// plus an O(1) dense (op, slot) -> placement table. Identified by a
// process-unique id so a thread-local arena can tell "same layout I already
// adopted" from "new network, re-adopt" without ever dereferencing a stored
// pointer to a possibly-destroyed layout.
class ArenaLayout {
 public:
  struct Extent {
    std::size_t offset = kUnassignedOffset;
    std::size_t bytes = 0;
  };

  // Colors `intervals` (filling offsets) and builds the lookup table for ops
  // [0, op_count). Intervals are retained for introspection/tests.
  ArenaLayout(std::vector<BufferInterval> intervals, std::uint32_t op_count);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] std::uint32_t op_count() const { return op_count_; }
  [[nodiscard]] const std::vector<BufferInterval>& intervals() const {
    return intervals_;
  }

  // Placement recorded for (op, slot); offset == kUnassignedOffset when the
  // plan has no buffer for that pair.
  [[nodiscard]] Extent find(std::uint32_t op, Scratch slot) const {
    const std::size_t index =
        static_cast<std::size_t>(op) * kScratchSlotCount +
        static_cast<std::size_t>(slot);
    if (index >= table_.size()) return Extent{};
    return table_[index];
  }

 private:
  std::uint64_t id_;
  std::uint32_t op_count_;
  std::size_t capacity_bytes_ = 0;
  std::vector<BufferInterval> intervals_;
  std::vector<Extent> table_;  // dense op-major (op * kSlotCount + slot)
};

// What a kernel invocation needs to fetch its planned buffers: which layout
// and which op it is executing as. Passed by pointer down the hot path
// (nullptr == dynamic grow-once route); the layout must outlive the call,
// which holds because steps keep it alive through the owning network's
// shared MemoryPlan.
struct PlanContext {
  const ArenaLayout* layout = nullptr;
  std::uint32_t op = 0;
};

}  // namespace flightnn::runtime
