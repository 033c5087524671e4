#pragma once

// NetworkProgram: the flat intermediate representation between a trained
// model and the executable QuantizedNetwork. compile_program() walks the
// layer tree once (the same dynamic_cast walk QuantizedNetwork::compile
// always did) and lowers every layer into a self-contained ProgramOp --
// shift layers carry their compiled ShiftPlan, batch norm arrives already
// folded into per-channel affines, residual blocks are flattened into
// pre-order segments with explicit child counts.
//
// The IR exists so the deployment artifact (serialize/artifact.hpp) has a
// stable, pointer-free description to serialize: every field is a scalar,
// a tensor, or one of a plan's four owned streams, so an op can be laid
// out into a flat blob and reconstituted without re-deriving anything from
// the float model. A program owns all its data; one parsed from an
// artifact does not reference the artifact's bytes.
// QuantizedNetwork::from_program() turns a program back into steps. A shift
// op's ShiftPlan is its only form: compile_program lowers the quantized
// weights once (lower_shift_weights) and drops them, so in-memory compiles
// and artifact loads hand the engines the same thing and build them the same
// way.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "inference/shift_plan.hpp"
#include "quant/pow2.hpp"
#include "tensor/tensor.hpp"

namespace flightnn::nn {
class Sequential;
}  // namespace flightnn::nn

namespace flightnn::inference {

struct CompileOptions {
  // Activation bit width used where the model has no explicit quantizer.
  int act_bits = 8;
  // Maximum shift terms expected per weight (for decomposition).
  int k_max = 2;
  quant::Pow2Config pow2;
};

// Serialization-stable op kinds (artifact format v1 records these values;
// append only, never renumber).
enum class ProgramOpKind : std::uint32_t {
  kQuantAct = 1,
  kShiftConv = 2,
  kFloatConv = 3,
  kAffine = 4,
  kLeakyRelu = 5,
  kMaxPool = 6,
  kGap = 7,
  kFlatten = 8,
  kShiftLinear = 9,
  kFloatLinear = 10,
  kResidual = 11,
};

// One lowered layer. Only the fields its kind reads are meaningful; the
// rest stay at their defaults.
struct ProgramOp {
  ProgramOpKind kind = ProgramOpKind::kQuantAct;

  int bits = 0;      // kQuantAct: activation quantizer width
  int act_bits = 8;  // shift ops: input re-quantization width
  float slope = 0.0F;  // kLeakyRelu

  // Geometry. Conv: out_channels/in_channels/kernel/stride/padding.
  // Linear: out_channels = out features, in_channels = in features.
  // MaxPool: window/stride.
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t window = 0;
  std::int64_t stride = 1;
  std::int64_t padding = 0;

  // Shift ops: compiled plan + the pow2 grid it shifts on, plus the
  // decomposition's term census (metadata reported by term_count()).
  std::int64_t term_count = 0;
  int k_max = 0;
  quant::Pow2Config pow2;
  ShiftPlan plan;

  // kFloatConv/kFloatLinear only: the (quantized) float weights. Always
  // empty for shift ops, whose plan is their only form.
  tensor::Tensor weights;
  tensor::Tensor bias;  // conv/linear bias; may be empty

  // kAffine (folded batch norm): y = scale[c] * x + affine_bias[c].
  std::vector<float> scale;
  std::vector<float> affine_bias;

  // kResidual: the ops vector continues with three flattened segments --
  // main, shortcut, post, in that order. Counts are TOTAL ops per segment,
  // nested residuals included, so a reader can skip a segment without
  // recursing.
  std::int64_t main_ops = 0;
  std::int64_t shortcut_ops = 0;
  std::int64_t post_ops = 0;
  bool has_shortcut = false;
};

// A compiled network: pre-order flat op list plus the input geometry the
// program was compiled for.
struct NetworkProgram {
  std::vector<ProgramOp> ops;
  std::int64_t input_c = 0;
  std::int64_t input_h = 0;
  std::int64_t input_w = 0;
};

// One shift conv together with the float neighbours it absorbs: the run
// [quant(b)] [maxpool] shift_conv [affine [leaky_relu]] of consecutive ops
// inside one segment, executed as a single fused step (DESIGN.md §14). A
// quant is absorbed only when b equals the conv's act_bits (the conv
// quantizes with the same rule, so the standalone quant is redundant); a
// maxpool only behind an absorbed quant (pooling codes then equals pooling
// the quantized floats); an affine only when it spans exactly the conv's
// out_channels; a leaky ReLU only behind an absorbed affine.
struct ShiftConvRun {
  std::size_t conv = 0;  // index of the shift conv op
  std::size_t end = 0;   // one past the run's last op
  bool quant = false;
  bool pool = false;
  bool affine = false;
  bool leaky = false;
};

// The run that starts at ops[begin] and stays inside [begin, end), or
// nullopt when ops[begin] does not start one (it is then a standalone
// step). QuantizedNetwork::from_program and MemoryPlan both fuse through
// this one rule.
std::optional<ShiftConvRun> match_shift_conv_run(
    const std::vector<ProgramOp>& ops, std::size_t begin, std::size_t end);

// Lower a trained model. Walks the layer tree in execution order; throws on
// layer types it does not understand. The model is used in eval mode during
// compilation (one dummy forward fixes geometry and batch-norm statistics).
NetworkProgram compile_program(nn::Sequential& model,
                               const tensor::Shape& input_shape,
                               const CompileOptions& options = {});

}  // namespace flightnn::inference
