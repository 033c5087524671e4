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
// filter. run() quantizes the float input once, straight into an int16
// staging image, gathers the patch panel from it and multiplies
// (core::int_gemm); a conv's run can also absorb the max pool before it and
// the folded batch norm and leaky ReLU after it (ConvFusion), so
// activations stay int16 codes from the quantizer to the GEMM and the float
// stages run in the GEMM's store. The plan is the layer's only stored form:
// engines built from weights lower them through lower_shift_weights() and
// then hold the same state as engines adopted from a compiled program or an
// artifact. The term-walk oracle the differential tests compare run()
// against lives in tests/; each output receives the same exact integer sum,
// so the two agree bit for bit (DESIGN.md §9).
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
// abs-max. `image` must be [C, H, W] or [1, C, H, W]; input holding NaN or
// +/-Inf is rejected with CheckFailure. These materialize the int32 codes
// for tests, benches and the term-walk oracle; the engines' tensor-input
// run() overloads quantize with the same rule straight into their int16
// staging buffers.
QuantizedActivations quantize_image(const tensor::Tensor& image, int bits = 8);

// Same quantization for a tensor of any shape (rank preserved); used for
// the flat feature vectors feeding linear layers.
QuantizedActivations quantize_tensor(const tensor::Tensor& x, int bits = 8);

// Dequantize back to float (for comparisons).
tensor::Tensor dequantize(const QuantizedActivations& activations);

// dequantize(quantize_tensor(x, bits)) fused into one float pass: snaps every
// element to the `bits`-bit pow2-scaled grid without materializing the
// integer codes. Element-wise identical to the two-step form, non-finite
// input rejected the same way; used by the compiled network's standalone
// activation-quantization steps.
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

// The float neighbours a fused shift-conv step absorbs (DESIGN.md §14): a
// max pool applied to the input's int16 codes before the lowering, and a
// per-output-channel affine (folded batch norm) plus leaky ReLU applied in
// the GEMM's store pass. A default-constructed fusion absorbs nothing.
struct ConvFusion {
  std::int64_t pool_window = 0;  // 0: no pool
  std::int64_t pool_stride = 0;
  std::vector<float> scale;      // affine y = scale[o] * y + bias[o]; empty:
  std::vector<float> bias;       // no affine
  bool leaky = false;
  float slope = 0.0F;
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

  // Run on one float image [C, H, W]: quantize it once to `act_bits`-bit
  // codes (abs-max pow2 scale, the quantize_image rule) written straight
  // into the int16 staging image, apply `fusion`'s pool to the codes, lower
  // and multiply, and store the dequantized output [out_channels, out_h,
  // out_w] through `fusion`'s affine and leaky epilogue. Accumulates the
  // analytic shift/add census into `counts` if non-null. Non-finite input,
  // or a plan whose accumulation could leave int64, throws CheckFailure.
  // Pruned filters cost no GEMM work, and every buffer but the output comes
  // from the per-thread arena's grow-once slot, sized by
  // conv_scratch_elements (zero steady-state allocation beyond the pooled
  // output tensor; DESIGN.md §15).
  [[nodiscard]] tensor::Tensor run(const tensor::Tensor& input, int act_bits,
                                   const ConvFusion& fusion,
                                   OpCounts* counts = nullptr) const;

  // Run on already-quantized codes (tests, benches): the codes are staged
  // into the same int16 buffer and take the same path, with no fusion.
  // |q| must fit int16 (any <= 16-bit quantization does).
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
  // Geometry of a run on an [in_channels, in_h, in_w] (pooled) input;
  // throws when the input is smaller than the kernel.
  [[nodiscard]] tensor::ConvGeometry geometry(std::int64_t in_h,
                                              std::int64_t in_w) const;
  // The shared tail of both run() overloads: `scratch` holds the panel
  // space followed by the staged codes at 2^scale_exp, |q| <= amax.
  tensor::Tensor run_staged(std::int16_t* scratch,
                            const tensor::ConvGeometry& geom, int scale_exp,
                            std::int64_t amax, const ConvFusion& fusion,
                            OpCounts* counts) const;

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

  // `input` must hold in_features values, of any shape. Quantizes them to
  // `act_bits`-bit codes straight into the one-column GEMM panel and returns
  // the dequantized float output [out_features]: a dense integer dot of each
  // panel row with the codes, same contract as ShiftConv2d::run.
  [[nodiscard]] tensor::Tensor run(const tensor::Tensor& input, int act_bits,
                                   OpCounts* counts = nullptr) const;
  // Same on already-quantized codes (tests, benches).
  [[nodiscard]] tensor::Tensor run(const QuantizedActivations& input,
                                   OpCounts* counts = nullptr) const;

  [[nodiscard]] std::int64_t term_count() const { return term_count_; }
  [[nodiscard]] std::int64_t out_features() const { return out_features_; }
  [[nodiscard]] std::int64_t in_features() const { return in_features_; }
  [[nodiscard]] const ShiftPanel& panel() const { return panel_; }
  // Kernel-tier name: always "scalar", the tier a one-column GEMM runs on.
  [[nodiscard]] const char* kernel_tier(int act_bits) const;

 private:
  // The shared tail of both run() overloads: `x` is the packed panel.
  tensor::Tensor run_panel_codes(const std::int16_t* x, int scale_exp,
                                 std::int64_t amax, OpCounts* counts) const;

  quant::Pow2Config config_;
  std::int64_t out_features_, in_features_;
  std::int64_t term_count_ = 0;
  std::int64_t entries_ = 0;  // plan entries: one accumulate each (census)
  tensor::Tensor bias_;
  ShiftPanel panel_;
};

// Int16 elements of the arena slot ShiftConv2d::run fetches at `geom` (the
// pooled input geometry): the K-pair panel, then the zero-bordered staging
// image, then -- when a pool is absorbed -- the unpooled code plane of
// `unpooled_numel` elements (0 without a pool). MemoryPlan sizes the slot
// with the same function.
std::int64_t conv_scratch_elements(const tensor::ConvGeometry& geom,
                                   std::int64_t unpooled_numel);

// Reference float convolution of one image (for bit-exactness tests):
// weights [O, I, K, K], image [C, H, W] -> [O, OH, OW]. Accumulates in
// double so it serves as the "real arithmetic" oracle.
tensor::Tensor reference_conv(const tensor::Tensor& weights,
                              const tensor::Tensor& image, std::int64_t stride,
                              std::int64_t padding,
                              const tensor::Tensor& bias = {});

}  // namespace flightnn::inference
