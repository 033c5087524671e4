#include "core/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define FLIGHTNN_GEMM_X86_DISPATCH 1
#endif

#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "support/annotations.hpp"
#include "support/check.hpp"
#include "support/env.hpp"
#include "support/simd.hpp"
#include "tensor/buffer_pool.hpp"

namespace flightnn::core {

namespace {

// Blocking parameters. The register tile (mr x nr) is picked at runtime --
// see active_kernel() -- because the portable baseline build carries no
// -march flags: a 4 x 8 scalar tile that the autovectorizer turns into SSE2
// code, or a 6 x 16 AVX2+FMA tile compiled with a per-function target
// attribute and selected via __builtin_cpu_supports, so one binary runs
// everywhere and still uses the wide units where they exist. kKc keeps one
// packed A micro-panel column and one packed B block inside L1/L2; kMc is
// the row count of one parallel task, sized so its packed A panel
// (kMc x kKc floats = 64 KiB) fits alongside the B block in L2.
constexpr std::int64_t kMrScalar = 4;
constexpr std::int64_t kNrScalar = 8;
constexpr std::int64_t kKc = 256;
constexpr std::int64_t kMc = 64;
// Columns per parallel task. Tasks tile C in kMc x kNc blocks so GEMMs with
// few rows (weight gradients: m = out_channels) still expose parallelism
// along N; the A-panel repack this duplicates per column block is ~1/(2*kNc)
// of the tile's FLOPs, i.e. noise. Must stay a multiple of every kernel's
// nr so B panel indices stay aligned to task columns.
constexpr std::int64_t kNc = 64;

// Rough scalar throughput used for the parallel_for cost hint: one
// multiply-add every ~0.1 ns once vectorized. Only the order of magnitude
// matters (it separates microsecond GEMMs from millisecond ones).
constexpr double kNsPerFlop = 0.05;

// Pack the [mc x kc] block of A starting at (m0, p0) into mr-row
// micro-panels: ap[ip][kk][r] = a(m0 + ip*mr + r, p0 + kk), zero-padded in
// r past the edge so the microkernel never branches on partial tiles.
FLIGHTNN_HOT void pack_a(const float* a, std::int64_t a_rs, std::int64_t a_cs,
            std::int64_t m0, std::int64_t mc, std::int64_t p0,
            std::int64_t kc, float* ap, std::int64_t mr_tile) {
  const std::int64_t panels = (mc + mr_tile - 1) / mr_tile;
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t row0 = m0 + ip * mr_tile;
    const std::int64_t mr = std::min(mr_tile, m0 + mc - row0);
    float* dst = ap + ip * kc * mr_tile;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = a + row0 * a_rs + (p0 + kk) * a_cs;
      std::int64_t r = 0;
      for (; r < mr; ++r) dst[kk * mr_tile + r] = src[r * a_rs];
      for (; r < mr_tile; ++r) dst[kk * mr_tile + r] = 0.0F;
    }
  }
}

// Pack the [kc x n] block of B starting at row p0 into nr-column
// micro-panels: bp[jp][kk][j] = b(p0 + kk, jp*nr + j), zero-padded in j.
FLIGHTNN_HOT void pack_b(const float* b, std::int64_t b_rs, std::int64_t b_cs,
            std::int64_t p0, std::int64_t kc, std::int64_t n, float* bp,
            std::int64_t nr_tile) {
  const std::int64_t panels = (n + nr_tile - 1) / nr_tile;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t col0 = jp * nr_tile;
    const std::int64_t nr = std::min(nr_tile, n - col0);
    float* dst = bp + jp * kc * nr_tile;
    if (b_cs == 1 && nr == nr_tile) {
      // Contiguous source rows: straight memcpy per kk.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(dst + kk * nr_tile, b + (p0 + kk) * b_rs + col0,
                    static_cast<std::size_t>(nr_tile) * sizeof(float));
      }
      continue;
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float* src = b + (p0 + kk) * b_rs + col0 * b_cs;
      std::int64_t j = 0;
      for (; j < nr; ++j) dst[kk * nr_tile + j] = src[j * b_cs];
      for (; j < nr_tile; ++j) dst[kk * nr_tile + j] = 0.0F;
    }
  }
}

// One mr x nr register tile over a packed KC block: fixed-bound loops over
// the full tile (padding made the panels rectangular), partial-edge handling
// deferred to the store. Accumulates into C, so the caller zeroes C rows
// once before the first KC block when not accumulating.
FLIGHTNN_HOT void micro_tile_scalar(const float* ap, const float* bp,
                                    std::int64_t kc,
                       float* c, std::int64_t ldc, std::int64_t mr,
                       std::int64_t nr) {
  float acc[kMrScalar * kNrScalar] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* a_col = ap + kk * kMrScalar;
    const float* b_row = bp + kk * kNrScalar;
    for (std::int64_t r = 0; r < kMrScalar; ++r) {
      const float a_val = a_col[r];
      for (std::int64_t j = 0; j < kNrScalar; ++j) {
        acc[r * kNrScalar + j] += a_val * b_row[j];
      }
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* c_row = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) c_row[j] += acc[r * kNrScalar + j];
  }
}

#ifdef FLIGHTNN_GEMM_X86_DISPATCH

// 6 x 16 AVX2+FMA tile: 12 YMM accumulators, two B vectors and one A
// broadcast live per k step (15 of 16 registers). Compiled with a target
// attribute so the portable build still links it; only ever called after
// __builtin_cpu_supports confirms avx2+fma.
__attribute__((target("avx2,fma"))) FLIGHTNN_HOT void micro_tile_avx2(
    const float* ap, const float* bp, std::int64_t kc, float* c,
    std::int64_t ldc, std::int64_t mr, std::int64_t nr) {
  constexpr std::int64_t kMrTile = 6;
  constexpr std::int64_t kNrTile = 16;
  __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
  __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
  __m256 acc20 = _mm256_setzero_ps(), acc21 = _mm256_setzero_ps();
  __m256 acc30 = _mm256_setzero_ps(), acc31 = _mm256_setzero_ps();
  __m256 acc40 = _mm256_setzero_ps(), acc41 = _mm256_setzero_ps();
  __m256 acc50 = _mm256_setzero_ps(), acc51 = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNrTile);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNrTile + 8);
    const float* a_col = ap + kk * kMrTile;
    __m256 av = _mm256_set1_ps(a_col[0]);
    acc00 = _mm256_fmadd_ps(av, b0, acc00);
    acc01 = _mm256_fmadd_ps(av, b1, acc01);
    av = _mm256_set1_ps(a_col[1]);
    acc10 = _mm256_fmadd_ps(av, b0, acc10);
    acc11 = _mm256_fmadd_ps(av, b1, acc11);
    av = _mm256_set1_ps(a_col[2]);
    acc20 = _mm256_fmadd_ps(av, b0, acc20);
    acc21 = _mm256_fmadd_ps(av, b1, acc21);
    av = _mm256_set1_ps(a_col[3]);
    acc30 = _mm256_fmadd_ps(av, b0, acc30);
    acc31 = _mm256_fmadd_ps(av, b1, acc31);
    av = _mm256_set1_ps(a_col[4]);
    acc40 = _mm256_fmadd_ps(av, b0, acc40);
    acc41 = _mm256_fmadd_ps(av, b1, acc41);
    av = _mm256_set1_ps(a_col[5]);
    acc50 = _mm256_fmadd_ps(av, b0, acc50);
    acc51 = _mm256_fmadd_ps(av, b1, acc51);
  }
  if (mr == kMrTile && nr == kNrTile) {
    const __m256 rows[kMrTile][2] = {{acc00, acc01}, {acc10, acc11},
                                     {acc20, acc21}, {acc30, acc31},
                                     {acc40, acc41}, {acc50, acc51}};
    for (std::int64_t r = 0; r < kMrTile; ++r) {
      float* c_row = c + r * ldc;
      _mm256_storeu_ps(c_row,
                       _mm256_add_ps(_mm256_loadu_ps(c_row), rows[r][0]));
      _mm256_storeu_ps(c_row + 8,
                       _mm256_add_ps(_mm256_loadu_ps(c_row + 8), rows[r][1]));
    }
    return;
  }
  alignas(32) float acc[kMrTile * kNrTile];
  _mm256_store_ps(acc + 0 * kNrTile, acc00);
  _mm256_store_ps(acc + 0 * kNrTile + 8, acc01);
  _mm256_store_ps(acc + 1 * kNrTile, acc10);
  _mm256_store_ps(acc + 1 * kNrTile + 8, acc11);
  _mm256_store_ps(acc + 2 * kNrTile, acc20);
  _mm256_store_ps(acc + 2 * kNrTile + 8, acc21);
  _mm256_store_ps(acc + 3 * kNrTile, acc30);
  _mm256_store_ps(acc + 3 * kNrTile + 8, acc31);
  _mm256_store_ps(acc + 4 * kNrTile, acc40);
  _mm256_store_ps(acc + 4 * kNrTile + 8, acc41);
  _mm256_store_ps(acc + 5 * kNrTile, acc50);
  _mm256_store_ps(acc + 5 * kNrTile + 8, acc51);
  for (std::int64_t r = 0; r < mr; ++r) {
    float* c_row = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) c_row[j] += acc[r * kNrTile + j];
  }
}

#endif  // FLIGHTNN_GEMM_X86_DISPATCH

using MicroFn = void (*)(const float*, const float*, std::int64_t, float*,
                         std::int64_t, std::int64_t, std::int64_t);

struct Kernel {
  std::int64_t mr;
  std::int64_t nr;
  MicroFn run;
};

// Resolved once per process. The choice affects only the pack layout and
// tile shape, never which element sums what -- each C element's accumulation
// order stays (KC blocks outer, packed K inner), so results remain
// bit-identical across thread counts for whichever kernel is active.
const Kernel& active_kernel() {
  static const Kernel kernel = [] {
#ifdef FLIGHTNN_GEMM_X86_DISPATCH
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Kernel{6, 16, micro_tile_avx2};
    }
#endif
    return Kernel{kMrScalar, kNrScalar, micro_tile_scalar};
  }();
  return kernel;
}

}  // namespace

FLIGHTNN_HOT void gemm_strided(const float* a, std::int64_t a_rs,
                               std::int64_t a_cs, const float* b,
                               std::int64_t b_rs, std::int64_t b_cs, float* c,
                               std::int64_t m, std::int64_t k, std::int64_t n,
                               bool accumulate) {
  FLIGHTNN_DCHECK(m >= 0 && k >= 0 && n >= 0,
                  "gemm: negative dimensions m=", m, " k=", k, " n=", n);
  FLIGHTNN_DCHECK(a != nullptr && b != nullptr && c != nullptr,
                  "gemm: null operand");
  if (m == 0 || n == 0) return;
  if (!accumulate && k == 0) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
    return;
  }

  const Kernel& kern = active_kernel();
  const std::int64_t mr_tile = kern.mr;
  const std::int64_t nr_tile = kern.nr;
  static_assert(kNc % 16 == 0 && kNc % kNrScalar == 0,
                "task columns must align to B panels");
  const std::int64_t n_panels = (n + nr_tile - 1) / nr_tile;
  const std::int64_t m_tasks = (m + kMc - 1) / kMc;
  const std::int64_t n_tasks = (n + kNc - 1) / kNc;
  // Shared packed-B block, reused across KC blocks. Pool-backed so repeat
  // training steps hit the free list instead of the allocator.
  std::vector<float> bp = tensor::pool::acquire(
      static_cast<std::size_t>(n_panels * nr_tile * std::min(kKc, k)));

  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - p0);
    pack_b(b, b_rs, b_cs, p0, kc, n, bp.data(), nr_tile);
    const bool zero_c = (p0 == 0) && !accumulate;
    const double task_ns = 2.0 * static_cast<double>(std::min(kMc, m)) *
                           static_cast<double>(kc) *
                           static_cast<double>(std::min(kNc, n)) * kNsPerFlop;
    // Parallel over kMc x kNc tiles of C: each task owns its C block
    // outright, so the partition never changes any element's accumulation
    // order -- results are bit-identical at every thread count.
    runtime::parallel_for(
        0, m_tasks * n_tasks, 1, runtime::CostHint{task_ns},
        [&](std::int64_t t_begin, std::int64_t t_end) {
          for (std::int64_t t = t_begin; t < t_end; ++t) {
            const std::int64_t m0 = (t / n_tasks) * kMc;
            const std::int64_t mc = std::min(kMc, m - m0);
            const std::int64_t c0 = (t % n_tasks) * kNc;
            const std::int64_t nc = std::min(kNc, n - c0);
            const std::int64_t a_panels = (mc + mr_tile - 1) / mr_tile;
            const std::int64_t b_panel0 = c0 / nr_tile;
            const std::int64_t b_panels = (nc + nr_tile - 1) / nr_tile;
            float* ap = runtime::ScratchArena::current().f32(
                runtime::Scratch::kGemmPackA,
                static_cast<std::size_t>(a_panels * mr_tile * kc));
            pack_a(a, a_rs, a_cs, m0, mc, p0, kc, ap, mr_tile);
            if (zero_c) {
              for (std::int64_t r = 0; r < mc; ++r) {
                std::memset(c + (m0 + r) * n + c0, 0,
                            static_cast<std::size_t>(nc) * sizeof(float));
              }
            }
            for (std::int64_t ip = 0; ip < a_panels; ++ip) {
              const std::int64_t row0 = m0 + ip * mr_tile;
              // Clamp to the task's row range: when kMc is not a multiple
              // of mr the last panel is zero-padded past it, and the rows
              // beyond belong to the next task.
              const std::int64_t mr = std::min(mr_tile, m0 + mc - row0);
              for (std::int64_t jp = 0; jp < b_panels; ++jp) {
                const std::int64_t col0 = (b_panel0 + jp) * nr_tile;
                const std::int64_t nr = std::min(nr_tile, c0 + nc - col0);
                kern.run(ap + ip * kc * mr_tile,
                         bp.data() + (b_panel0 + jp) * kc * nr_tile, kc,
                         c + row0 * n + col0, n, mr, nr);
              }
            }
          }
        });
  }
  tensor::pool::release(std::move(bp));
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_strided(a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/n, /*b_cs=*/1, c, m, k,
               n, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // a is [k x m] row-major; A^T(i, p) = a[p * m + i].
  gemm_strided(a, /*a_rs=*/1, /*a_cs=*/m, b, /*b_rs=*/n, /*b_cs=*/1, c, m, k,
               n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  // b is [n x k] row-major; B^T(p, j) = b[j * k + p].
  gemm_strided(a, /*a_rs=*/k, /*a_cs=*/1, b, /*b_rs=*/1, /*b_cs=*/k, c, m, k,
               n, accumulate);
}

// --- Exact integer GEMM ------------------------------------------------------

namespace {

// Task block of the integer GEMM: kIntMc rows x kIntNc columns, both whole
// register tiles. Inside a task the column tile is the outer loop, so one
// kIntGemmNr-wide slice of X stays in L1 while every row tile streams past.
constexpr std::int64_t kIntMc = 16;
constexpr std::int64_t kIntNc = 128;
static_assert(kIntMc % kIntGemmMr == 0 && kIntNc % kIntGemmNr == 0,
              "integer GEMM task blocks must be whole register tiles");
// Order-of-magnitude cost of one integer multiply-add for the parallel_for
// gate.
constexpr double kNsPerIntMac = 0.05;

// -1 = no override; otherwise a KernelTier value forced by tests.
std::atomic<int> g_tier_override{-1};

// Tier from FLIGHTNN_FORCE_SCALAR and the CPU, resolved once per process.
KernelTier detected_kernel_tier() {
  static const KernelTier tier = [] {
    if (support::env_int("FLIGHTNN_FORCE_SCALAR").value_or(0) != 0) {
      return KernelTier::kScalar;
    }
    return support::cpu_has_avx2() ? KernelTier::kAvx2 : KernelTier::kScalar;
  }();
  return tier;
}

// Fused store of one register tile, acc[r * kIntGemmNr + j], through
// int_gemm_epilogue. float(acc) is an integer with at most 24 significant
// bits and the scale a power of two (or zero after underflow), so the
// dequantize product is exact short of overflow to inf.
template <typename AccT>
FLIGHTNN_HOT void store_tile(const AccT* acc, std::int64_t row0,
                             std::int64_t mr, std::int64_t j0, std::int64_t nc,
                             const IntGemmStore& st) {
  for (std::int64_t r = 0; r < mr; ++r) {
    const std::int64_t o = st.row_map[row0 + r];
    float* dst = st.out + o * st.ldo + j0;
    const AccT* a = acc + r * kIntGemmNr;
    for (std::int64_t j = 0; j < nc; ++j) {
      dst[j] = int_gemm_epilogue(st, o, static_cast<float>(a[j]));
    }
  }
}

// Portable tier: one kIntGemmMr x nc tile in int64. `wt` is the row tile's
// panel, `x` the column tile's first pair. nc == 1 with ld == 1 is the dot
// product of the linear layers, which always run here.
template <typename TW>
FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void int_tile_scalar(
    const TW* wt, const std::int16_t* x, std::int64_t pairs, std::int64_t ld,
    std::int64_t nc, std::int64_t* acc) {
  std::fill(acc, acc + kIntGemmMr * kIntGemmNr, std::int64_t{0});
  for (std::int64_t p = 0; p < pairs; ++p) {
    const TW* wp = wt + p * 2 * kIntGemmMr;
    const std::int16_t* xp = x + p * ld * 2;
    for (std::int64_t r = 0; r < kIntGemmMr; ++r) {
      const std::int64_t w0 = wp[2 * r];
      const std::int64_t w1 = wp[2 * r + 1];
      std::int64_t* a = acc + r * kIntGemmNr;
      for (std::int64_t j = 0; j < nc; ++j) {
        a[j] += w0 * xp[2 * j] + w1 * xp[2 * j + 1];
      }
    }
  }
}

// Runs `tile(row0, mr, j0, nc)` over every register tile of the output,
// parallel over kIntMc x kIntNc task blocks. Each output element belongs to
// exactly one tile, so the partition never changes any arithmetic.
template <typename TileFn>
void for_each_int_tile(const IntGemmShape& s, const TileFn& tile) {
  const std::int64_t m_tasks = (s.rows + kIntMc - 1) / kIntMc;
  const std::int64_t n_tasks = (s.cols + kIntNc - 1) / kIntNc;
  const runtime::CostHint cost{
      2.0 * static_cast<double>(std::min(kIntMc, s.rows)) *
      static_cast<double>(std::min(kIntNc, s.cols)) *
      static_cast<double>(s.pairs) * kNsPerIntMac};
  runtime::parallel_for(
      0, m_tasks * n_tasks, 1, cost,
      [&](std::int64_t t_begin, std::int64_t t_end) {
        for (std::int64_t t = t_begin; t < t_end; ++t) {
          const std::int64_t r_begin = (t / n_tasks) * kIntMc;
          const std::int64_t r_end = std::min(s.rows, r_begin + kIntMc);
          const std::int64_t c_begin = (t % n_tasks) * kIntNc;
          const std::int64_t c_end = std::min(s.cols, c_begin + kIntNc);
          for (std::int64_t j0 = c_begin; j0 < c_end; j0 += kIntGemmNr) {
            const std::int64_t nc = std::min(kIntGemmNr, c_end - j0);
            for (std::int64_t row0 = r_begin; row0 < r_end;
                 row0 += kIntGemmMr) {
              tile(row0, std::min(kIntGemmMr, r_end - row0), j0, nc);
            }
          }
        }
      });
}

template <typename TW>
void int_gemm_scalar(const TW* w, const std::int16_t* x,
                     const IntGemmShape& s, const IntGemmStore& st) {
  const std::int64_t ld = int_gemm_ld(s.cols);
  for_each_int_tile(s, [&](std::int64_t row0, std::int64_t mr,
                           std::int64_t j0, std::int64_t nc) {
    std::int64_t acc[kIntGemmMr * kIntGemmNr];
    int_tile_scalar(w + row0 * s.pairs * 2, x + j0 * 2, s.pairs, ld, nc, acc);
    store_tile(acc, row0, mr, j0, nc, st);
  });
}

#ifdef FLIGHTNN_GEMM_X86_DISPATCH

// The int32 holding the K-pair at `p` (two adjacent int16).
inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// 4 x 16 vpmaddwd tile: eight int32 accumulators, two X vectors and one
// broadcast weight pair live per K-pair step. Each vpmaddwd lane adds
// w(r, 2p) * x(2p, j) + w(r, 2p+1) * x(2p+1, j) -- exact under the narrow
// bound, as is every accumulator partial sum. Reads only whole padded
// tiles, which the packed layouts always hold.
__attribute__((target("avx2"))) FLIGHTNN_HOT FLIGHTNN_INT_KERNEL void
int_tile_avx2(const std::int16_t* wt, const std::int16_t* x,
              std::int64_t pairs, std::int64_t ld, std::int32_t* acc) {
  static_assert(kIntGemmMr == 4 && kIntGemmNr == 16, "tile shape");
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  for (std::int64_t p = 0; p < pairs; ++p) {
    const std::int16_t* xp = x + p * ld * 2;
    const __m256i x0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xp));
    const __m256i x1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xp + 16));
    const std::int16_t* wp = wt + p * 2 * kIntGemmMr;
    __m256i w = _mm256_set1_epi32(load_pair(wp));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(w, x0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(w, x1));
    w = _mm256_set1_epi32(load_pair(wp + 2));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(w, x0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(w, x1));
    w = _mm256_set1_epi32(load_pair(wp + 4));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(w, x0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(w, x1));
    w = _mm256_set1_epi32(load_pair(wp + 6));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(w, x0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(w, x1));
  }
  const __m256i rows[kIntGemmMr][2] = {
      {c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  for (std::int64_t r = 0; r < kIntGemmMr; ++r) {
    __m256i* dst = reinterpret_cast<__m256i*>(acc + r * kIntGemmNr);
    _mm256_storeu_si256(dst, rows[r][0]);
    _mm256_storeu_si256(dst + 1, rows[r][1]);
  }
}

// Fused store of a full 16-column tile, eight lanes at a time: the same
// multiplies, adds and leaky bit select as int_gemm_epilogue, lane-wise
// (the compare is false for NaN in both forms).
__attribute__((target("avx2"))) FLIGHTNN_HOT void store_tile_avx2(
    const std::int32_t* acc, std::int64_t row0, std::int64_t mr,
    std::int64_t j0, const IntGemmStore& st) {
  const __m256 scale = _mm256_set1_ps(st.scale);
  const __m256 slope = _mm256_set1_ps(st.slope);
  const __m256 zero = _mm256_setzero_ps();
  for (std::int64_t r = 0; r < mr; ++r) {
    const std::int64_t o = st.row_map[row0 + r];
    const __m256 b = _mm256_set1_ps(st.bias != nullptr ? st.bias[o] : 0.0F);
    const bool affine = st.post_scale != nullptr;
    const __m256 ps = _mm256_set1_ps(affine ? st.post_scale[o] : 0.0F);
    const __m256 pb = _mm256_set1_ps(affine ? st.post_bias[o] : 0.0F);
    float* dst = st.out + o * st.ldo + j0;
    for (std::int64_t j = 0; j < kIntGemmNr; j += 8) {
      const __m256 v = _mm256_cvtepi32_ps(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(acc + r * kIntGemmNr + j)));
      __m256 y = _mm256_add_ps(_mm256_mul_ps(v, scale), b);
      if (affine) y = _mm256_add_ps(_mm256_mul_ps(ps, y), pb);
      if (st.leaky) {
        y = _mm256_blendv_ps(_mm256_mul_ps(slope, y), y,
                             _mm256_cmp_ps(y, zero, _CMP_GT_OQ));
      }
      _mm256_storeu_ps(dst + j, y);
    }
  }
}

void int_gemm_avx2(const std::int16_t* w, const std::int16_t* x,
                   const IntGemmShape& s, const IntGemmStore& st) {
  const std::int64_t ld = int_gemm_ld(s.cols);
  for_each_int_tile(s, [&](std::int64_t row0, std::int64_t mr,
                           std::int64_t j0, std::int64_t nc) {
    alignas(32) std::int32_t acc[kIntGemmMr * kIntGemmNr];
    int_tile_avx2(w + row0 * s.pairs * 2, x + j0 * 2, s.pairs, ld, acc);
    if (nc == kIntGemmNr) {
      store_tile_avx2(acc, row0, mr, j0, st);
    } else {
      store_tile(acc, row0, mr, j0, nc, st);
    }
  });
}

#endif  // FLIGHTNN_GEMM_X86_DISPATCH

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  return tier == KernelTier::kAvx2 ? "avx2" : "scalar";
}

KernelTier active_kernel_tier() {
  const int forced = g_tier_override.load(std::memory_order_relaxed);
  const KernelTier tier =
      forced >= 0 ? static_cast<KernelTier>(forced) : detected_kernel_tier();
  return tier == KernelTier::kAvx2 && support::cpu_has_avx2()
             ? KernelTier::kAvx2
             : KernelTier::kScalar;
}

void set_kernel_tier_override(int tier) {
  g_tier_override.store(tier, std::memory_order_relaxed);
}

FLIGHTNN_HOT void int_gemm(KernelTier tier, const std::int16_t* w,
                           const std::int16_t* x, const IntGemmShape& shape,
                           const IntGemmStore& store) {
  FLIGHTNN_DCHECK(shape.rows >= 0 && shape.pairs >= 0 && shape.cols >= 0,
                  "int_gemm: negative shape");
  if (shape.rows == 0 || shape.cols == 0) return;
#ifdef FLIGHTNN_GEMM_X86_DISPATCH
  // A single packed column (ld 1) is narrower than the avx2 tile reads.
  if (tier == KernelTier::kAvx2 && shape.cols > 1 && support::cpu_has_avx2()) {
    int_gemm_avx2(w, x, shape, store);
    return;
  }
#else
  (void)tier;
#endif
  int_gemm_scalar(w, x, shape, store);
}

FLIGHTNN_HOT void int_gemm(const std::int64_t* w, const std::int16_t* x,
                           const IntGemmShape& shape,
                           const IntGemmStore& store) {
  FLIGHTNN_DCHECK(shape.rows >= 0 && shape.pairs >= 0 && shape.cols >= 0,
                  "int_gemm: negative shape");
  if (shape.rows == 0 || shape.cols == 0) return;
  int_gemm_scalar(w, x, shape, store);
}

}  // namespace flightnn::core
