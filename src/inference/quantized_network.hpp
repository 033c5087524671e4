#pragma once

// Whole-network integer inference: compile a trained model into an
// execution plan whose convolutions and fully-connected layers run on the
// shift-add integer engine (Fig. 3's LightNN-1 datapath), with batch norm
// folded into per-channel affine steps and activations re-quantized to
// fixed point between layers -- the structure of a pipelined (F)LightNN
// accelerator where shifts/adds are the datapath and the per-channel scale
// is a fixed-function stage.
//
// The plan mirrors the model's eval-mode forward pass: the same
// quantization points (the model's ActivationQuant layers), the same
// quantized weights, the same folded statistics. One deliberate addition:
// inputs to shift-coded layers are always quantized (hardware feeds the
// integer datapath integer codes), which adds a quantization point before
// the classifier that the float model lacks -- logits agree to that step's
// 8-bit granularity, convolution outputs bit-exactly.
//
// from_program fuses each shift conv with the quant, max pool, affine and
// leaky ReLU around it (ShiftConvRun, DESIGN.md §14): one step quantizes
// once into int16 codes, pools on codes and runs the float stages in the
// GEMM's store, with logits byte-identical to running the ops one by one.
//
// Layers with shift-codable weights (LightNN-k / FLightNN transforms, or
// full-precision weights after `quantize_weights_to(k)`) run on the
// integer engine; fixed-point / full-precision layers fall back to float
// math on their (quantized) weights so that any model variant can be
// compiled and compared.

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "inference/network_program.hpp"
#include "inference/shift_engine.hpp"
#include "nn/sequential.hpp"

namespace flightnn::inference {

class MemoryPlan;  // inference/memory_plan.hpp

struct NetworkOpCounts {
  std::int64_t shifts = 0;
  std::int64_t adds = 0;
  // MAC-equivalents executed in float fallback (non-shift layers).
  std::int64_t float_macs = 0;
  std::int64_t images = 0;
};

// Per-step observability record produced by QuantizedNetwork::profile().
struct StepProfile {
  std::string name;        // step->describe()
  double seconds = 0.0;    // mean wall time per run of this step
  std::int64_t shifts = 0;
  std::int64_t adds = 0;
  std::int64_t float_macs = 0;
  std::int64_t terms = 0;  // single-shift filter terms (0 for non-shift steps)
  // Kernel tier the step dispatches to ("scalar" / "avx2"; "-" for steps
  // that do not run on the shift engine).
  std::string kernel_tier = "-";
  // Arena scratch this step's kernels fetch, summed over a residual's
  // subtree (0 when the step uses none or the network has no memory plan).
  std::size_t planned_scratch_bytes = 0;
};

class QuantizedNetwork {
 public:
  // Compile a trained model. Walks the layer tree in execution order;
  // throws on layer types it does not understand. The model is used in
  // eval mode during compilation (one dummy forward fixes geometry).
  static QuantizedNetwork compile(nn::Sequential& model,
                                  const tensor::Shape& input_shape,
                                  const CompileOptions& options = {});

  // Build an executable network from a lowered program (the IR
  // compile_program emits and the deployment artifact stores). Every shift
  // engine adopts its op's compiled plan, so an in-memory compile and an
  // artifact load build identical networks.
  static QuantizedNetwork from_program(NetworkProgram program);

  // Run one image [C, H, W] (or [1, C, H, W]) to logits.
  [[nodiscard]] tensor::Tensor run(const tensor::Tensor& image,
                                   NetworkOpCounts* counts = nullptr) const;

  // Top-k classification accuracy over a dataset.
  [[nodiscard]] double evaluate(const data::Dataset& dataset, int top_k = 1,
                                NetworkOpCounts* counts = nullptr) const;

  // Per-layer wall time and op census: runs the image through the network
  // step by step, timing each step over `repeats` runs (the first run of
  // each step also collects its op counts). Observability only -- outputs
  // are discarded.
  [[nodiscard]] std::vector<StepProfile> profile(const tensor::Tensor& image,
                                                 int repeats = 10) const;

  // Number of executable steps (for introspection / tests).
  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }

  // The memory plan attached at from_program time, or nullptr when the
  // planner's shape walk rejected the program (the network then runs
  // unwarmed). Valid for the network's lifetime; BatchRunner's warm path
  // applies it on every worker.
  [[nodiscard]] const MemoryPlan* memory_plan() const {
    return memory_plan_.get();
  }

  // Human-readable plan ("quant(8b) -> shift_conv[16f/25t] -> affine ...").
  [[nodiscard]] std::string describe() const;

  // One step of the compiled plan. Public so tests can extend/inspect.
  class Step {
   public:
    virtual ~Step() = default;
    virtual tensor::Tensor run(const tensor::Tensor& input,
                               NetworkOpCounts* counts) const = 0;
    [[nodiscard]] virtual std::string describe() const = 0;
    // Single-shift filter terms executed by this step (0 for steps that do
    // not run on the shift engine).
    [[nodiscard]] virtual std::int64_t term_count() const { return 0; }
    // Kernel tier this step dispatches to (see StepProfile::kernel_tier).
    [[nodiscard]] virtual const char* kernel_tier() const { return "-"; }
  };

 private:
  std::vector<std::unique_ptr<Step>> steps_;
  // shared_ptr: its deleter is bound where the plan is built, so this
  // header can hold the forward-declared type.
  std::shared_ptr<const MemoryPlan> memory_plan_;
  // Flat-op index range [begin, end) each top-level step was built from;
  // parallel to steps_. profile() joins this with MemoryPlan::per_op().
  std::vector<std::pair<std::uint32_t, std::uint32_t>> step_ops_;
};

}  // namespace flightnn::inference
