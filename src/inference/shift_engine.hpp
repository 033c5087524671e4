#pragma once

// Integer shift-add inference engine: the CPU realization of the hardware
// the paper maps (F)LightNNs onto. Activations are 8-bit fixed point with a
// power-of-two scale; weights are decomposed into single power-of-two terms
// (Fig. 3), so every multiply is a barrel shift and the accumulation is
// integer adds -- exactly the LightNN-1 datapath plus per-layer feature-map
// summation. The engine is bit-exact: its dequantized output equals the
// real-arithmetic convolution of the quantized operands.
//
// Execution is an exact integer GEMM (DESIGN.md §14). Every engine holds a
// ShiftPlan (inference/shift_plan.hpp), the sparsity-elided SoA record of
// its shift terms, and packs it once into a ShiftPanel: each live filter's
// terms summed into small integer weights, one dense GEMM row per unpruned
// filter. run() lowers the image to an int16 patch panel and multiplies
// (core::int_gemm). The plan is the layer's only stored form: engines built
// from weights lower them through lower_shift_weights() and then hold the
// same state as engines adopted from a compiled program or an artifact. The
// term-walk oracle the differential tests compare run() against lives in
// tests/; each output receives the same exact integer sum, so the two agree
// bit for bit (DESIGN.md §9).
//
// Like the paper's FPGA evaluation (Sec. 5.2), the engine operates at layer
// granularity -- convolutions dominate >90% of CNN compute, so the largest
// conv layer is the implementation target.

#include <cstdint>
#include <vector>

#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::inference {

// Activations quantized to signed integers with scale 2^scale_exp.
struct QuantizedActivations {
  std::vector<std::int32_t> values;  // q; real value = q * 2^scale_exp
  int scale_exp = 0;
  tensor::Shape shape;  // [C, H, W] (single image)
  // Largest |q|, cached at quantize time so the engines' hoisted overflow
  // checks never rescan the activation vector. -1 = unknown (hand-built
  // activations); abs_max() then falls back to a scan.
  std::int64_t max_abs = -1;

  [[nodiscard]] std::int64_t abs_max() const;
};

// Symmetric `bits`-bit quantization with a power-of-two scale covering the
// abs-max. `image` must be [C, H, W] or [1, C, H, W].
QuantizedActivations quantize_image(const tensor::Tensor& image, int bits = 8);

// Same quantization for a tensor of any shape (rank preserved); used for
// the flat feature vectors feeding linear layers.
QuantizedActivations quantize_tensor(const tensor::Tensor& x, int bits = 8);

// Allocation-reusing variants: quantize into `out`, reusing its value buffer
// (no heap traffic once the buffer has reached its high-water size). These
// are what the compiled network's steps call in steady state. Input holding
// NaN or +/-Inf is rejected with CheckFailure.
void quantize_image_into(const tensor::Tensor& image, int bits,
                         QuantizedActivations& out);
void quantize_tensor_into(const tensor::Tensor& x, int bits,
                          QuantizedActivations& out);

// Dequantize back to float (for comparisons).
tensor::Tensor dequantize(const QuantizedActivations& activations);

// dequantize(quantize_tensor(x, bits)) fused into one float pass: snaps every
// element to the `bits`-bit pow2-scaled grid without materializing the
// integer codes. Element-wise identical to the two-step form; used by the
// compiled network's activation-quantization steps.
tensor::Tensor fake_quantize(const tensor::Tensor& x, int bits);

// Operation census of one engine run.
struct OpCounts {
  std::int64_t shifts = 0;  // one per nonzero weight term element per output
  std::int64_t adds = 0;    // accumulator additions
};

// A shift layer lowered to the single-shift datapath: the compiled plan plus
// the decomposition's term census (metadata reported by term_count()).
struct ShiftLowering {
  ShiftPlan plan;
  std::int64_t term_count = 0;
};

// The one lowering from quantized weights to a plan (Fig. 3): decompose into
// single-shift terms, validate the decomposition against the weight geometry
// and the pow2 window, compile the plan. OIHW weights lower to a conv plan,
// [out, in] weights to a linear plan; any other rank throws. compile_program
// and the engines' weights constructors both go through here.
ShiftLowering lower_shift_weights(const tensor::Tensor& quantized_weights,
                                  int k_max, const quant::Pow2Config& config);

// A plan packed for core::int_gemm: the summed weights of every live
// (unpruned) filter as one panel row, in int16 when every weight fits and in
// int64 otherwise. Built once at engine construction from the plan's
// streams; the engine keeps the panel, not the plan.
struct ShiftPanel {
  std::vector<std::int32_t> rows;    // GEMM row -> filter
  std::vector<std::int32_t> pruned;  // filters with no terms (no GEMM row)
  std::int64_t pairs = 0;  // core::int_gemm_pairs(weight elements per filter)
  // Largest filter gain: sum of 2^shift over a filter's entries, saturated
  // at kShiftAccumulatorGuard; 0 when every filter is pruned. max|q| *
  // max_gain bounds every partial sum of every row.
  std::int64_t max_gain = 0;
  std::vector<std::int16_t> w16;     // packed panel, narrow weights
  std::vector<std::int64_t> w64;     // packed panel, wide weights
};

// Conv geometry of a lowered layer.
struct ShiftConvSpec {
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;
};

struct ShiftLinearSpec {
  std::int64_t out_features = 0;
  std::int64_t in_features = 0;
};

// A convolution compiled to the single-shift datapath.
class ShiftConv2d {
 public:
  // `quantized_weights` is an OIHW tensor whose elements are sums of at most
  // `k_max` powers of two (output of LightNN-k / FLightNN quantization).
  // `bias` may be empty. Lowers the weights (lower_shift_weights) and adopts
  // the resulting plan.
  ShiftConv2d(const tensor::Tensor& quantized_weights, int k_max,
              const quant::Pow2Config& config, std::int64_t stride,
              std::int64_t padding, tensor::Tensor bias = {});

  // Adopt an already-lowered layer (compiled program or deployment artifact).
  // The plan's structure is re-checked (stream sizes, a monotone filter
  // prefix spanning the entries) and every entry is bounds-checked while the
  // panel is packed, so a malformed plan throws CheckFailure.
  ShiftConv2d(ShiftLowering lowered, const ShiftConvSpec& spec,
              const quant::Pow2Config& config, tensor::Tensor bias = {});

  // Run on one quantized image; returns the dequantized float output
  // [out_channels, out_h, out_w]. Accumulates the analytic shift/add census
  // into `counts` if non-null. |q| must fit int16 (any <= 16-bit
  // quantization does); larger values, or a plan whose accumulation could
  // leave int64, throw CheckFailure. Pruned filters cost no GEMM work, and
  // the patch panel comes from the per-thread arena's grow-once slot (zero
  // steady-state allocation beyond the pooled output tensor; DESIGN.md §15).
  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input,
                                   OpCounts* counts = nullptr) const;

  // Number of single-shift filter terms (the LightNN-1 engine's workload).
  [[nodiscard]] std::int64_t term_count() const { return term_count_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] const ShiftPanel& panel() const { return panel_; }
  // Name of the kernel tier run() dispatches to for activations quantized
  // at `act_bits` ("scalar" / "avx2"): the static form of run()'s dynamic
  // gate, using |q| <= 2^(bits-1)-1. Reflects the currently active dispatch
  // (CPU, FLIGHTNN_FORCE_SCALAR, test override).
  [[nodiscard]] const char* kernel_tier(int act_bits) const;

 private:
  quant::Pow2Config config_;
  std::int64_t out_channels_, in_channels_, kernel_, stride_, padding_;
  std::int64_t term_count_ = 0;
  tensor::Tensor bias_;  // float; folded in after dequantization
  // run()'s workload. The GEMM writes each output from exactly one task,
  // so parallel results are bit-identical to serial execution.
  ShiftPanel panel_;
  // Plan entries per kernel tap (ky * kernel + kx): the op census is a
  // K x K sum, not a walk over the entries.
  std::vector<std::int64_t> tap_entries_;
};

// A fully-connected layer compiled to the single-shift datapath: weights
// [out, in] decomposed into power-of-two terms, input a quantized flat
// vector, accumulation in int64.
class ShiftLinear {
 public:
  ShiftLinear(const tensor::Tensor& quantized_weights, int k_max,
              const quant::Pow2Config& config, tensor::Tensor bias = {});

  // Adopt an already-lowered layer (see the ShiftConv2d overload).
  ShiftLinear(ShiftLowering lowered, const ShiftLinearSpec& spec,
              const quant::Pow2Config& config, tensor::Tensor bias = {});

  // `input` must hold in_features values. Returns the dequantized float
  // output [out_features]: a dense integer dot of each panel row with the
  // packed input, same contract as ShiftConv2d::run.
  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input,
                                   OpCounts* counts = nullptr) const;

  [[nodiscard]] std::int64_t term_count() const { return term_count_; }
  [[nodiscard]] std::int64_t out_features() const { return out_features_; }
  [[nodiscard]] std::int64_t in_features() const { return in_features_; }
  [[nodiscard]] const ShiftPanel& panel() const { return panel_; }
  // Kernel-tier name: always "scalar", the tier a one-column GEMM runs on.
  [[nodiscard]] const char* kernel_tier(int act_bits) const;

 private:
  quant::Pow2Config config_;
  std::int64_t out_features_, in_features_;
  std::int64_t term_count_ = 0;
  std::int64_t entries_ = 0;  // plan entries: one accumulate each (census)
  tensor::Tensor bias_;
  ShiftPanel panel_;
};

// Reference float convolution of one image (for bit-exactness tests):
// weights [O, I, K, K], image [C, H, W] -> [O, OH, OW]. Accumulates in
// double so it serves as the "real arithmetic" oracle.
tensor::Tensor reference_conv(const tensor::Tensor& weights,
                              const tensor::Tensor& image, std::int64_t stride,
                              std::int64_t padding,
                              const tensor::Tensor& bias = {});

}  // namespace flightnn::inference
