#pragma once

// Compiled execution plan for the shift-add engine. A `core::Decomposition`
// is a faithful record of the quantizer's output: per-term element vectors
// that still contain zero elements (sign == 0) and per-filter term lists
// that may be empty (pruned filters). Walking that record at inference time
// makes the inner loop pay for weights that contribute nothing -- exactly
// the cost the paper's per-filter k_i is supposed to eliminate (Fig. 3).
//
// `ShiftPlan` lowers the decomposition once, at compile time
// (lower_shift_weights in inference/shift_engine.hpp), into a flat
// structure-of-arrays: one contiguous stream of (element, shift, sign)
// entries per filter, with every zero element and every pruned filter elided.
// The plan is the layer's stored form (artifacts serialize its four streams
// verbatim, 6 bytes per entry plus the filter prefix) and the source of the
// analytic shift/add census the hardware models read, which is exactly
// proportional to Σ_i k_i · nnz_i. The engines pack it once into a dense
// integer weight panel (ShiftPanel) and run that as a GEMM; pruned filters
// never become GEMM rows (DESIGN.md §14). Anything the streams imply -- an
// entry's kernel tap, a filter's worst-case accumulator gain -- is derived
// by the engines at construction, never stored.
//
// Entry order is: filters ascending; within a filter, terms in decomposition
// order; within a term, elements in index order. The order is stable and
// documented, but the engine's correctness does not depend on it: summing a
// filter's entries per element yields the same integer weights in any
// order, and exact integer accumulation is associative and commutative, so
// any regrouping produces bit-identical results (DESIGN.md §9).

#include <cstdint>
#include <vector>

#include "core/decompose.hpp"
#include "quant/pow2.hpp"

namespace flightnn::inference {

struct ShiftPlan {
  // --- Entry streams, indexed [filter_begin[f], filter_begin[f+1]) ---------
  // Flat weight-element index of the entry: c*K*K + ky*K + kx into the OIHW
  // filter for a conv, the input-feature index for a linear layer.
  std::vector<std::int32_t> element;
  // Barrel-shifter amount (exponent - e_min, always >= 0) and sign (+1/-1;
  // zero-sign elements never make it into a plan).
  std::vector<std::int8_t> shift;
  std::vector<std::int8_t> sign;

  // Prefix array over filters: filter f's entries are
  // [filter_begin[f], filter_begin[f+1]); size filters + 1. A pruned filter
  // has an empty range and costs nothing at run time.
  std::vector<std::int64_t> filter_begin;

  std::int64_t filters = 0;

  [[nodiscard]] std::int64_t entries() const {
    return static_cast<std::int64_t>(element.size());
  }

  // Lower a decomposition (conv OIHW or linear [out, in] weights; the entry
  // streams are the same for both).
  static ShiftPlan compile(const core::Decomposition& decomposition,
                           const quant::Pow2Config& config);
};

// Saturation ceiling shared with the engine's overflow contract.
inline constexpr std::int64_t kShiftAccumulatorGuard = std::int64_t{1} << 62;

}  // namespace flightnn::inference
