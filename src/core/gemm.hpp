#pragma once

// Cache-blocked, thread-parallel GEMM core for the float training path.
//
// Layout follows the classic three-loop blocking scheme (Goto/BLIS): the K
// dimension is cut into KC-deep blocks, B is packed once per block into
// NR-wide column micro-panels, and the M dimension is split into MC-row
// panels that are distributed over runtime::ThreadPool::parallel_for. Each
// task packs its own A panel into MR-row micro-panels (per-thread scratch,
// runtime::Scratch::kGemmPackA) and drives an MR x NR register-tiled
// microkernel over the packed operands. The shared B pack buffer comes from
// the per-thread tensor buffer pool on the caller, so steady-state training
// loops perform no heap allocation here.
//
// The microkernel is selected once at startup: the build stays at the
// portable SSE2 baseline, but a second microkernel compiled with
// __attribute__((target("avx2,fma"))) (6 x 16 tile, FMA accumulation) is
// picked via __builtin_cpu_supports("avx2") when the host has it. Both
// kernels accumulate each C element in the same packed-K order, so the
// dispatch changes throughput, never results-per-kernel -- though AVX2's
// fused multiply-adds round differently from the baseline's mul+add, so
// results are bit-stable per host, not across hosts (same contract as
// -march=native builds; DESIGN.md §10).
//
// Determinism: every C element is accumulated in a fixed order -- KC blocks
// outermost, packed K order inside the microkernel -- and the parallel
// partition only decides *which thread* computes an (M-panel, KC-block)
// pair, never the arithmetic inside it. Results are therefore bit-identical
// to serial execution at any thread count (the property DESIGN.md §8 demands
// of float kernels and DESIGN.md §10 extends to the training path).
//
// The transposed variants gemm_tn / gemm_nt reuse the same packed core; the
// pack routines absorb the transpose by walking the source with swapped
// strides, so there is exactly one microkernel to test and tune.
//
// The naive single-thread kernels these replace live on as differential
// oracles in tensor/ops.hpp (tensor::gemm, tensor::matmul_*).
//
// The second half of this header is the exact integer GEMM the shift
// layers of the inference engine run on (DESIGN.md §14): int16 weight
// panels times an int16 activation panel, accumulated exactly and
// dequantized in the store pass.

#include <bit>
#include <cstdint>

namespace flightnn::core {

// C[m x n] = A[m x k] * B[k x n], all row-major. Accumulates into C instead
// of overwriting when `accumulate` is set.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m x n] = A^T * B where a is [k x m] row-major (A^T taken logically).
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

// C[m x n] = A * B^T where b is [n x k] row-major.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate = false);

// Fully general strided entry point: a(i, p) = a[i * a_rs + p * a_cs],
// b(p, j) = b[p * b_rs + j * b_cs], C row-major [m x n]. The named wrappers
// above are thin stride bindings over this.
void gemm_strided(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                  const float* b, std::int64_t b_rs, std::int64_t b_cs,
                  float* c, std::int64_t m, std::int64_t k, std::int64_t n,
                  bool accumulate);

// --- Exact integer GEMM (shift-layer inference, DESIGN.md §14) -------------
//
// C[rows x cols] = W[rows x depth] * X[depth x cols] over integers, with the
// dequantize-and-bias epilogue fused into the store (o = row_map[r]):
//   y = float(C[r][j]) * scale + bias[o]
//   y = post_scale[o] * y + post_bias[o]    (when post_scale is set)
//   y = leaky_relu(y, slope)                 (when leaky is set)
//   out[o * ldo + j] = y
// with `scale` a power of two, so the first product is exact. The affine and
// leaky stages are a fused shift conv's folded batch norm and activation
// (DESIGN.md §14); every multiply and add rounds separately (the library
// builds with -ffp-contract=off), in the order the standalone steps use.
//
// Both operands are packed in K-pairs so one vpmaddwd lane multiplies and
// adds two depth steps at once:
//   W (rows padded to kIntGemmMr, depth to an even count, zero-filled):
//     w(r, k) at ((r / kIntGemmMr) * pairs + k / 2) * 2 * kIntGemmMr
//                + (r % kIntGemmMr) * 2 + k % 2
//   X (ld = int_gemm_ld(cols) columns, padding zero-filled):
//     x(k, j) at ((k / 2) * ld + j) * 2 + k % 2
// A single column (cols == 1, the linear layers) packs with ld 1 and runs
// on the scalar tier whatever tier is asked for.
//
// Tiers. kScalar accumulates in int64 and is exact whenever no partial sum
// leaves int64; it is the portable route and serves weights wider than
// int16 (the int64 overload). kAvx2 accumulates in int32 lanes and is
// exact under the narrow bound the caller must establish: every |x| times
// the largest per-row sum of |w| is at most INT32_MAX. That bound covers
// each vpmaddwd pair sum and every partial sum, so both tiers produce the
// same integers and the same floats. Rows are split into independent tiles
// and each output is written by exactly one task, so results are also
// bit-identical at every thread count.

enum class KernelTier : int { kScalar = 0, kAvx2 = 1 };

// Stable lowercase name for bench JSON and --profile output.
const char* kernel_tier_name(KernelTier tier);

// The tier shift layers dispatch to: resolved once per process from
// FLIGHTNN_FORCE_SCALAR (any nonzero integer forces kScalar) and the CPU's
// capabilities, unless a test override is installed. Never kAvx2 on a CPU
// without AVX2.
KernelTier active_kernel_tier();

// Test hook: force a tier for later active_kernel_tier() calls (0 = scalar,
// 1 = avx2, -1 = clear the override). Not for production use.
void set_kernel_tier_override(int tier);

// Register tile of the integer kernels.
inline constexpr std::int64_t kIntGemmMr = 4;
inline constexpr std::int64_t kIntGemmNr = 16;

// Depth pairs for `depth` (odd depths end in a zero-padded pair).
inline std::int64_t int_gemm_pairs(std::int64_t depth) {
  return (depth + 1) / 2;
}
// Rows padded to whole register tiles.
inline std::int64_t int_gemm_padded_rows(std::int64_t rows) {
  return (rows + kIntGemmMr - 1) / kIntGemmMr * kIntGemmMr;
}
// Packed X row pitch in columns.
inline std::int64_t int_gemm_ld(std::int64_t cols) {
  return cols == 1 ? 1 : (cols + kIntGemmNr - 1) / kIntGemmNr * kIntGemmNr;
}
// Index of w(r, k) in a packed weight panel.
inline std::int64_t int_gemm_weight_index(std::int64_t r, std::int64_t k,
                                          std::int64_t pairs) {
  return ((r / kIntGemmMr) * pairs + k / 2) * 2 * kIntGemmMr +
         (r % kIntGemmMr) * 2 + k % 2;
}

struct IntGemmShape {
  std::int64_t rows = 0;   // live weight rows
  std::int64_t pairs = 0;  // int_gemm_pairs(depth)
  std::int64_t cols = 0;   // output columns
};

// Leaky ReLU as a bit select: `slope * v` is computed for every element and
// a mask chooses between it and v, so the result is byte-identical to
// `v > 0 ? v : slope * v` for every slope (not only slope <= 1, where
// max(v, slope * v) would do) and the compiler emits no data-dependent
// branch. Shared by the standalone leaky step and the GEMM store epilogue.
inline float leaky_relu(float v, float slope) {
  const std::uint32_t keep = 0U - static_cast<std::uint32_t>(v > 0.0F);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(v) & keep) |
                              (std::bit_cast<std::uint32_t>(slope * v) & ~keep));
}

// Fused dequantize-and-bias store plus the optional epilogue above.
struct IntGemmStore {
  float* out = nullptr;
  std::int64_t ldo = 0;                     // output row pitch
  const std::int32_t* row_map = nullptr;    // GEMM row -> output row
  const float* bias = nullptr;              // per output row; null = 0
  float scale = 1.0F;                       // a power of two, or 0
  const float* post_scale = nullptr;        // per output row; null = no affine
  const float* post_bias = nullptr;         // set together with post_scale
  bool leaky = false;
  float slope = 0.0F;
};

// The stored value of output row `o` for the dequantized accumulator
// `value` = float(acc) (the scalar form of the store; pruned rows apply it
// to an all-zero accumulator).
inline float int_gemm_epilogue(const IntGemmStore& st, std::int64_t o,
                               float value) {
  float y = value * st.scale + (st.bias != nullptr ? st.bias[o] : 0.0F);
  if (st.post_scale != nullptr) y = st.post_scale[o] * y + st.post_bias[o];
  return st.leaky ? leaky_relu(y, st.slope) : y;
}

// int16 panels on `tier` (kAvx2 requires the narrow bound above and falls
// back to kScalar on a CPU without AVX2 or for a single column).
void int_gemm(KernelTier tier, const std::int16_t* w, const std::int16_t* x,
              const IntGemmShape& shape, const IntGemmStore& store);

// Weights wider than int16: scalar int64 route only.
void int_gemm(const std::int64_t* w, const std::int16_t* x,
              const IntGemmShape& shape, const IntGemmStore& store);

}  // namespace flightnn::core
