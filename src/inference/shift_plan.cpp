#include "inference/shift_plan.hpp"

#include <limits>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace flightnn::inference {

// Group terms by filter, stream out only nonzero elements.
FLIGHTNN_API_ENTRY ShiftPlan ShiftPlan::compile(
    const core::Decomposition& decomposition, const quant::Pow2Config& config) {
  FLIGHTNN_CHECK(decomposition.elements_per_filter >= 0,
                 "ShiftPlan::compile: negative elements per filter ",
                 decomposition.elements_per_filter);
  const auto filters = static_cast<std::int64_t>(decomposition.filter_k.size());

  ShiftPlan plan;
  plan.filters = filters;

  // Terms grouped by filter in decomposition order (compile-time only; the
  // runtime structure is the flat entry stream).
  std::vector<std::vector<std::size_t>> terms_by_filter(
      static_cast<std::size_t>(filters));
  for (std::size_t t = 0; t < decomposition.terms.size(); ++t) {
    const std::int64_t filter = decomposition.terms[t].filter;
    // A term addressing a filter outside the decomposition's own range used
    // to write straight past terms_by_filter; decompositions built from
    // parsed (untrusted) packs reach this path, so the bound is a hard
    // check, not a DCHECK.
    FLIGHTNN_CHECK(filter >= 0 && filter < filters, "ShiftPlan: term ", t,
                   " addresses filter ", filter, " outside [0, ", filters,
                   ")");
    terms_by_filter[static_cast<std::size_t>(filter)].push_back(t);
  }

  plan.filter_begin.reserve(static_cast<std::size_t>(filters) + 1);
  plan.filter_begin.push_back(0);

  for (std::int64_t f = 0; f < filters; ++f) {
    for (const std::size_t t : terms_by_filter[static_cast<std::size_t>(f)]) {
      const auto& term = decomposition.terms[t];
      for (std::size_t e = 0; e < term.elements.size(); ++e) {
        const quant::Pow2Term w = term.elements[e];
        if (w.sign == 0) continue;  // elided: zero elements never reach run()
        FLIGHTNN_CHECK(w.sign == 1 || w.sign == -1, "ShiftPlan: term sign ",
                       static_cast<int>(w.sign), " must be -1, 0 or +1");
        const int shift = static_cast<int>(w.exponent) - config.e_min;
        FLIGHTNN_CHECK(shift >= 0 && shift < 62,
                       "ShiftPlan: shift ", shift,
                       " outside the barrel shifter's range");
        FLIGHTNN_CHECK(static_cast<std::int64_t>(e) <=
                           std::numeric_limits<std::int32_t>::max(),
                       "ShiftPlan: element index ", e, " overflows int32");
        plan.element.push_back(static_cast<std::int32_t>(e));
        plan.shift.push_back(static_cast<std::int8_t>(shift));
        plan.sign.push_back(w.sign);
      }
    }
    plan.filter_begin.push_back(plan.entries());
  }

  return plan;
}

}  // namespace flightnn::inference
