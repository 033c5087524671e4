#pragma once

// Offline buffer-liveness analysis over a NetworkProgram (DESIGN.md §15).
// At plan-compile time (and again in-loader for artifact-adopted programs,
// like the engines' GEMM panel packing -- the format stays v1) the planner
// simulates the program's execution shape-by-shape and derives, for every
// op, exactly which buffers its kernel will touch and for how long:
//
//   - Arena scratch (each shift layer's int16 slot: the K-pair patch panel
//     its GEMM multiplies, plus for a conv the zero-bordered staging image
//     its one code pass writes and, when it absorbed a max pool, the
//     unpooled code plane; conv_scratch_elements): op-local, so one
//     per-thread slot sized to the largest serves every op
//     (runtime/scratch_arena.hpp). Codes are int16 on every route, so the
//     extent is exact; accumulators live in registers. A fused shift-conv
//     run (match_shift_conv_run) is walked as the one step it executes as.
//   - Activations (step outputs, residual chain-entry copies, reshapes):
//     value-semantic pooled tensors, so they stay in tensor::pool; the
//     planner accounts their live intervals and prewarms the pool with the
//     exact working set (per-numel max simultaneous live count), which
//     removes the first-batch warmup allocations on that route too.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "inference/network_program.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

// Per-op memory census (observability: --profile's scratch column, the
// memory bench, DESIGN §15's planned-vs-measured table).
struct OpMemory {
  std::uint32_t op = 0;
  ProgramOpKind kind = ProgramOpKind::kQuantAct;
  // Arena-backed scratch this op's kernel fetches (its int16 slot; a fused
  // run's lands on its shift conv op).
  std::size_t scratch_bytes = 0;
  std::size_t activation_bytes = 0;  // output tensor bytes (pool-backed)
};

// One live activation interval (pool accounting; not arena-backed).
struct ActivationInterval {
  std::size_t numel = 0;
  std::uint32_t def_op = 0;
  std::uint32_t last_use_op = 0;
};

class MemoryPlan {
 public:
  // Analyzes `program`. Throws CheckFailure on structurally invalid
  // programs (same conditions from_program rejects); use try_build when the
  // caller wants the canonical from_program error instead.
  explicit MemoryPlan(const NetworkProgram& program);

  // Builds a plan, or returns nullptr when the program is structurally
  // invalid (the subsequent from_program walk then reports the canonical
  // error) -- planning must never mask the builder's diagnostics.
  static std::shared_ptr<const MemoryPlan> try_build(
      const NetworkProgram& program);

  // Bytes of the per-thread scratch slot: the largest op's, rounded up to
  // the arena alignment (scratch is op-local, so no two ops' slots are ever
  // live together).
  [[nodiscard]] std::size_t arena_capacity_bytes() const {
    return arena_capacity_bytes_;
  }
  // Peak of the summed live activation bytes over the program (pool-backed
  // working set of the thread driving run()).
  [[nodiscard]] std::size_t activation_peak_bytes() const {
    return activation_peak_bytes_;
  }
  // Planned bytes one worker thread holds in steady state: its scratch
  // slot, the only per-thread buffer. (The thread running the step loop
  // additionally carries the activation working set.)
  [[nodiscard]] std::size_t planned_per_thread_bytes() const {
    return arena_capacity_bytes();
  }
  [[nodiscard]] const std::vector<OpMemory>& per_op() const { return per_op_; }
  [[nodiscard]] const std::vector<ActivationInterval>& activations() const {
    return activations_;
  }
  // Exact pool prewarm recipe: (numel, max simultaneous live tensors of
  // that numel) over the whole program.
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  activation_working_set() const {
    return working_set_;
  }

  // Prepare the calling thread for allocation-free planned execution from
  // the first batch: reserve the scratch slot to the plan's peak and
  // prewarm the buffer pool with the activation working set.
  void warm_thread() const;

 private:
  struct Analysis;
  explicit MemoryPlan(Analysis&& analysis);

  std::vector<OpMemory> per_op_;
  std::vector<ActivationInterval> activations_;
  std::vector<std::pair<std::size_t, std::size_t>> working_set_;
  std::size_t arena_capacity_bytes_ = 0;
  std::size_t activation_peak_bytes_ = 0;
};

}  // namespace flightnn::inference
