#include "inference/quantized_network.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "support/annotations.hpp"
#include "support/check.hpp"

#include "core/gemm.hpp"
#include "inference/memory_plan.hpp"
#include "nn/loss.hpp"

namespace flightnn::inference {

namespace {

using Step = QuantizedNetwork::Step;
using StepPtr = std::unique_ptr<Step>;

// --- Steps --------------------------------------------------------------------

class QuantizeActStep final : public Step {
 public:
  explicit QuantizeActStep(int bits) : bits_(bits) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    return fake_quantize(input, bits_);
  }
  [[nodiscard]] std::string describe() const override {
    return "quant(" + std::to_string(bits_) + "b)";
  }

 private:
  int bits_;
};

// A shift conv with the neighbours it absorbed (ShiftConvRun): activations
// stay int16 codes from the quantizer to the GEMM, and the affine and leaky
// run in the GEMM's store pass. `absorbed` lists the absorbed ops for
// describe().
class ShiftConvStep final : public Step {
 public:
  ShiftConvStep(ShiftConv2d engine, int act_bits, ConvFusion fusion,
                std::string absorbed)
      : engine_(std::move(engine)),
        act_bits_(act_bits),
        fusion_(std::move(fusion)),
        absorbed_(std::move(absorbed)) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* counts) const override {
    OpCounts ops{};
    tensor::Tensor out =
        engine_.run(input, act_bits_, fusion_, counts ? &ops : nullptr);
    if (counts != nullptr) {
      counts->shifts += ops.shifts;
      counts->adds += ops.adds;
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override {
    std::string name = "shift_conv[" +
                       std::to_string(engine_.out_channels()) + "f/" +
                       std::to_string(engine_.term_count()) + "t]";
    return absorbed_.empty() ? name : name + "(" + absorbed_ + ")";
  }
  [[nodiscard]] std::int64_t term_count() const override {
    return engine_.term_count();
  }
  [[nodiscard]] const char* kernel_tier() const override {
    return engine_.kernel_tier(act_bits_);
  }

 private:
  ShiftConv2d engine_;
  int act_bits_;
  ConvFusion fusion_;
  std::string absorbed_;
};

class FloatConvStep final : public Step {
 public:
  FloatConvStep(tensor::Tensor weights, tensor::Tensor bias, std::int64_t stride,
                std::int64_t padding)
      : weights_(std::move(weights)),
        bias_(std::move(bias)),
        stride_(stride),
        padding_(padding) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* counts) const override {
    if (counts != nullptr) {
      const auto& ws = weights_.shape();
      const std::int64_t out_h =
          (input.shape()[1] + 2 * padding_ - ws[2]) / stride_ + 1;
      const std::int64_t out_w =
          (input.shape()[2] + 2 * padding_ - ws[3]) / stride_ + 1;
      counts->float_macs += ws[0] * ws[1] * ws[2] * ws[3] * out_h * out_w;
    }
    return reference_conv(weights_, input, stride_, padding_, bias_);
  }
  [[nodiscard]] std::string describe() const override {
    return "float_conv[" + std::to_string(weights_.shape()[0]) + "f]";
  }

 private:
  tensor::Tensor weights_, bias_;
  std::int64_t stride_, padding_;
};

// Per-channel y = scale[c] * x + bias[c] (folded batch norm).
class AffineStep final : public Step {
 public:
  AffineStep(std::vector<float> scale, std::vector<float> bias)
      : scale_(std::move(scale)), bias_(std::move(bias)) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    const auto& s = input.shape();
    FLIGHTNN_CHECK(s.rank() == 3 &&
                       s[0] == static_cast<std::int64_t>(scale_.size()),
                   "AffineStep: expected [", scale_.size(),
                   ", H, W] input, got ", s.to_string());
    tensor::Tensor out(s);
    const std::int64_t hw = s[1] * s[2];
    for (std::size_t c = 0; c < scale_.size(); ++c) {
      const float* in_plane = input.data() + static_cast<std::int64_t>(c) * hw;
      float* out_plane = out.data() + static_cast<std::int64_t>(c) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        out_plane[i] = scale_[c] * in_plane[i] + bias_[c];
      }
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override { return "affine"; }

 private:
  std::vector<float> scale_, bias_;
};

class LeakyReLUStep final : public Step {
 public:
  explicit LeakyReLUStep(float slope) : slope_(slope) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    tensor::Tensor out(input.shape());
    const float* in = input.data();
    float* o = out.data();
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      o[i] = core::leaky_relu(in[i], slope_);
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override { return "leaky_relu"; }

 private:
  float slope_;
};

class MaxPoolStep final : public Step {
 public:
  MaxPoolStep(std::int64_t window, std::int64_t stride)
      : window_(window), stride_(stride) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    const auto& s = input.shape();
    FLIGHTNN_CHECK(s.rank() == 3, "MaxPoolStep: CHW input expected, got ",
                   s.to_string());
    const std::int64_t channels = s[0], in_h = s[1], in_w = s[2];
    FLIGHTNN_CHECK(in_h >= window_ && in_w >= window_,
                   "MaxPoolStep: window ", window_, " larger than input ",
                   s.to_string());
    const std::int64_t out_h = (in_h - window_) / stride_ + 1;
    const std::int64_t out_w = (in_w - window_) / stride_ + 1;
    tensor::Tensor out(tensor::Shape{channels, out_h, out_w});
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + c * in_h * in_w;
      float* out_plane = out.data() + c * out_h * out_w;
      for (std::int64_t oy = 0; oy < out_h; ++oy) {
        for (std::int64_t ox = 0; ox < out_w; ++ox) {
          float best = plane[(oy * stride_) * in_w + ox * stride_];
          for (std::int64_t ky = 0; ky < window_; ++ky) {
            for (std::int64_t kx = 0; kx < window_; ++kx) {
              best = std::max(best, plane[(oy * stride_ + ky) * in_w +
                                          ox * stride_ + kx]);
            }
          }
          out_plane[oy * out_w + ox] = best;
        }
      }
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override { return "maxpool"; }

 private:
  std::int64_t window_, stride_;
};

class GapStep final : public Step {
 public:
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    const auto& s = input.shape();
    FLIGHTNN_CHECK(s.rank() == 3, "GapStep: CHW input expected, got ",
                   s.to_string());
    const std::int64_t channels = s[0], hw = s[1] * s[2];
    tensor::Tensor out(tensor::Shape{channels});
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + c * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
      out[c] = static_cast<float>(acc / static_cast<double>(hw));
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override { return "gap"; }
};

class FlattenStep final : public Step {
 public:
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* /*counts*/) const override {
    return input.reshaped(tensor::Shape{input.numel()});
  }
  [[nodiscard]] std::string describe() const override { return "flatten"; }
};

class ShiftLinearStep final : public Step {
 public:
  ShiftLinearStep(ShiftLinear engine, int act_bits)
      : engine_(std::move(engine)), act_bits_(act_bits) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* counts) const override {
    // No explicit flatten: quantization is shape-oblivious and the engine
    // validates numel, so the values stream straight into its panel.
    OpCounts ops{};
    tensor::Tensor out =
        engine_.run(input, act_bits_, counts ? &ops : nullptr);
    if (counts != nullptr) {
      counts->shifts += ops.shifts;
      counts->adds += ops.adds;
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override {
    return "shift_linear[" + std::to_string(engine_.out_features()) + "]";
  }
  [[nodiscard]] std::int64_t term_count() const override {
    return engine_.term_count();
  }
  [[nodiscard]] const char* kernel_tier() const override {
    return engine_.kernel_tier(act_bits_);
  }

 private:
  ShiftLinear engine_;
  int act_bits_;
};

class FloatLinearStep final : public Step {
 public:
  FloatLinearStep(tensor::Tensor weights, tensor::Tensor bias)
      : weights_(std::move(weights)), bias_(std::move(bias)) {}
  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* counts) const override {
    const std::int64_t out_features = weights_.shape()[0];
    const std::int64_t in_features = weights_.shape()[1];
    tensor::Tensor flat = input.shape().rank() == 1
                              ? input
                              : input.reshaped(tensor::Shape{input.numel()});
    FLIGHTNN_CHECK(flat.numel() == in_features,
                   "FloatLinearStep: input numel ", flat.numel(),
                   " does not match in features ", in_features);
    if (counts != nullptr) counts->float_macs += out_features * in_features;
    tensor::Tensor out(tensor::Shape{out_features});
    for (std::int64_t o = 0; o < out_features; ++o) {
      double acc = bias_.empty() ? 0.0 : bias_[o];
      const float* row = weights_.data() + o * in_features;
      for (std::int64_t e = 0; e < in_features; ++e) {
        acc += static_cast<double>(row[e]) * flat[e];
      }
      out[o] = static_cast<float>(acc);
    }
    return out;
  }
  [[nodiscard]] std::string describe() const override {
    return "float_linear[" + std::to_string(weights_.shape()[0]) + "]";
  }

 private:
  tensor::Tensor weights_, bias_;
};

class ResidualStep final : public Step {
 public:
  ResidualStep(std::vector<StepPtr> main_steps, std::vector<StepPtr> shortcut_steps,
               bool has_shortcut, std::vector<StepPtr> post_steps)
      : main_(std::move(main_steps)),
        shortcut_(std::move(shortcut_steps)),
        has_shortcut_(has_shortcut),
        post_(std::move(post_steps)) {}

  tensor::Tensor run(const tensor::Tensor& input,
                     NetworkOpCounts* counts) const override {
    tensor::Tensor main_out = run_chain(main_, input, counts);
    tensor::Tensor skip_out =
        has_shortcut_ ? run_chain(shortcut_, input, counts) : input;
    main_out += skip_out;
    return run_chain(post_, main_out, counts);
  }
  [[nodiscard]] std::string describe() const override { return "residual"; }

 private:
  static tensor::Tensor run_chain(const std::vector<StepPtr>& steps,
                                  const tensor::Tensor& input,
                                  NetworkOpCounts* counts) {
    tensor::Tensor current = input;
    for (const auto& step : steps) current = step->run(current, counts);
    return current;
  }

  std::vector<StepPtr> main_, shortcut_;
  bool has_shortcut_;
  std::vector<StepPtr> post_;
};

// --- Program -> steps -----------------------------------------------------
//
// from_program consumes the flat pre-order op list with a cursor. Residual
// segments are length-delimited (op.main_ops etc. are total counts), so the
// builder checks exact consumption at every nesting level: a program whose
// counts lie -- truncated, overlapping, or out of range -- fails with a
// typed CheckFailure instead of misassembling a network. The artifact
// loader leans on this as its final structural gate.

StepPtr build_step(std::vector<ProgramOp>& ops, std::size_t& cursor,
                   std::size_t end);

std::vector<StepPtr> build_segment(std::vector<ProgramOp>& ops,
                                   std::size_t& cursor, std::int64_t count,
                                   std::size_t end, const char* what) {
  FLIGHTNN_CHECK(count >= 0 && static_cast<std::size_t>(count) <= end - cursor,
                 "from_program: residual ", what, " segment claims ", count,
                 " ops but only ", end - cursor, " remain");
  const std::size_t segment_end = cursor + static_cast<std::size_t>(count);
  std::vector<StepPtr> steps;
  steps.reserve(static_cast<std::size_t>(count));
  while (cursor < segment_end) {
    steps.push_back(build_step(ops, cursor, segment_end));
  }
  return steps;
}

void check_max_pool(const ProgramOp& op) {
  FLIGHTNN_CHECK(op.window > 0 && op.stride > 0, "from_program: max pool window ",
                 op.window, " / stride ", op.stride, " must be positive");
}

// One fused step from a matched run; the cursor moves past the run.
StepPtr build_shift_conv(std::vector<ProgramOp>& ops, const ShiftConvRun& run,
                         std::size_t& cursor) {
  ProgramOp& op = ops[run.conv];
  FLIGHTNN_CHECK(op.act_bits >= 2 && op.act_bits <= 16,
                 "from_program: shift conv act bits ", op.act_bits,
                 " outside [2, 16]");
  ConvFusion fusion;
  std::string absorbed;
  const auto absorb = [&absorbed](const std::string& name) {
    absorbed += (absorbed.empty() ? "" : "+") + name;
  };
  if (run.quant) absorb("quant(" + std::to_string(op.act_bits) + "b)");
  if (run.pool) {
    const ProgramOp& pool = ops[run.conv - 1];
    check_max_pool(pool);
    fusion.pool_window = pool.window;
    fusion.pool_stride = pool.stride;
    absorb("maxpool");
  }
  if (run.affine) {
    ProgramOp& affine = ops[run.conv + 1];
    fusion.scale = std::move(affine.scale);
    fusion.bias = std::move(affine.affine_bias);
    absorb("affine");
  }
  if (run.leaky) {
    fusion.leaky = true;
    fusion.slope = ops[run.conv + 2].slope;
    absorb("leaky_relu");
  }
  cursor = run.end;
  const ShiftConvSpec spec{op.out_channels, op.in_channels, op.kernel,
                           op.stride, op.padding};
  return std::make_unique<ShiftConvStep>(
      ShiftConv2d({std::move(op.plan), op.term_count}, spec, op.pow2,
                  std::move(op.bias)),
      op.act_bits, std::move(fusion), std::move(absorbed));
}

StepPtr build_step(std::vector<ProgramOp>& ops, std::size_t& cursor,
                   std::size_t end) {
  FLIGHTNN_CHECK(cursor < end, "from_program: op stream exhausted");
  if (const auto run = match_shift_conv_run(ops, cursor, end)) {
    return build_shift_conv(ops, *run, cursor);
  }
  ProgramOp op = std::move(ops[cursor]);
  ++cursor;
  switch (op.kind) {
    case ProgramOpKind::kQuantAct:
      FLIGHTNN_CHECK(op.bits >= 2 && op.bits <= 16, "from_program: quant op ",
                     op.bits, " bits outside [2, 16]");
      return std::make_unique<QuantizeActStep>(op.bits);
    case ProgramOpKind::kShiftConv:
      // Every shift conv starts a run (possibly absorbing nothing).
      break;
    case ProgramOpKind::kFloatConv:
      FLIGHTNN_CHECK(op.weights.shape().rank() == 4,
                     "from_program: float conv weights must be OIHW");
      return std::make_unique<FloatConvStep>(std::move(op.weights),
                                             std::move(op.bias), op.stride,
                                             op.padding);
    case ProgramOpKind::kAffine:
      FLIGHTNN_CHECK(op.scale.size() == op.affine_bias.size(),
                     "from_program: affine scale/bias size mismatch (",
                     op.scale.size(), " vs ", op.affine_bias.size(), ")");
      return std::make_unique<AffineStep>(std::move(op.scale),
                                          std::move(op.affine_bias));
    case ProgramOpKind::kLeakyRelu:
      return std::make_unique<LeakyReLUStep>(op.slope);
    case ProgramOpKind::kMaxPool:
      check_max_pool(op);
      return std::make_unique<MaxPoolStep>(op.window, op.stride);
    case ProgramOpKind::kGap:
      return std::make_unique<GapStep>();
    case ProgramOpKind::kFlatten:
      return std::make_unique<FlattenStep>();
    case ProgramOpKind::kShiftLinear: {
      FLIGHTNN_CHECK(op.act_bits >= 2 && op.act_bits <= 16,
                     "from_program: shift linear act bits ", op.act_bits,
                     " outside [2, 16]");
      const ShiftLinearSpec spec{op.out_channels, op.in_channels};
      return std::make_unique<ShiftLinearStep>(
          ShiftLinear({std::move(op.plan), op.term_count}, spec, op.pow2,
                      std::move(op.bias)),
          op.act_bits);
    }
    case ProgramOpKind::kFloatLinear:
      FLIGHTNN_CHECK(op.weights.shape().rank() == 2,
                     "from_program: float linear weights must be [out, in]");
      return std::make_unique<FloatLinearStep>(std::move(op.weights),
                                               std::move(op.bias));
    case ProgramOpKind::kResidual: {
      FLIGHTNN_CHECK(op.has_shortcut || op.shortcut_ops == 0,
                     "from_program: residual without shortcut claims ",
                     op.shortcut_ops, " shortcut ops");
      auto main_steps = build_segment(ops, cursor, op.main_ops, end, "main");
      auto shortcut_steps =
          build_segment(ops, cursor, op.shortcut_ops, end, "shortcut");
      auto post_steps = build_segment(ops, cursor, op.post_ops, end, "post");
      return std::make_unique<ResidualStep>(
          std::move(main_steps), std::move(shortcut_steps), op.has_shortcut,
          std::move(post_steps));
    }
  }
  FLIGHTNN_CHECK(false, "from_program: unknown op kind ",
                 static_cast<std::uint32_t>(op.kind));
  return nullptr;  // unreachable
}

}  // namespace

QuantizedNetwork QuantizedNetwork::compile(nn::Sequential& model,
                                           const tensor::Shape& input_shape,
                                           const CompileOptions& options) {
  return from_program(compile_program(model, input_shape, options));
}

QuantizedNetwork QuantizedNetwork::from_program(NetworkProgram program) {
  QuantizedNetwork network;
  // Plan memory before build_step consumes the ops; on the artifact load
  // path this is the in-loader rebuild (format stays v1).
  network.memory_plan_ = MemoryPlan::try_build(program);
  std::size_t cursor = 0;
  const std::size_t end = program.ops.size();
  network.steps_.reserve(end);
  while (cursor < end) {
    const auto begin = static_cast<std::uint32_t>(cursor);
    network.steps_.push_back(build_step(program.ops, cursor, end));
    network.step_ops_.emplace_back(begin, static_cast<std::uint32_t>(cursor));
  }
  return network;
}

FLIGHTNN_HOT FLIGHTNN_API_ENTRY tensor::Tensor QuantizedNetwork::run(
    const tensor::Tensor& image, NetworkOpCounts* counts) const {
  tensor::Tensor current;
  const auto& s = image.shape();
  FLIGHTNN_CHECK(s.rank() == 3 || (s.rank() == 4 && s[0] == 1),
                 "QuantizedNetwork::run: expected [C,H,W] or [1,C,H,W], got ",
                 s.to_string());
  // Non-finite pixels would otherwise flow through quantization silently
  // (NaN yields finite logits, +Inf all-zero ones), so they stop here.
  const float* pixels = image.data();
  const float* bad = std::find_if(pixels, pixels + image.numel(),
                                  [](float v) { return !std::isfinite(v); });
  FLIGHTNN_CHECK(bad == pixels + image.numel(),
                 "QuantizedNetwork::run: non-finite input value ", *bad,
                 " at element ", bad - pixels);
  if (s.rank() == 3) {
    current = image;
  } else {
    current = image.reshaped(tensor::Shape{s[1], s[2], s[3]});
  }
  for (const auto& step : steps_) {
    current = step->run(current, counts);
  }
  if (counts != nullptr) ++counts->images;
  return current;
}

std::vector<StepProfile> QuantizedNetwork::profile(const tensor::Tensor& image,
                                                   int repeats) const {
  FLIGHTNN_CHECK(repeats >= 1, "QuantizedNetwork::profile: repeats ", repeats,
                 " must be >= 1");
  tensor::Tensor current;
  const auto& s = image.shape();
  FLIGHTNN_CHECK(s.rank() == 3 || (s.rank() == 4 && s[0] == 1),
                 "QuantizedNetwork::profile: expected [C,H,W] or [1,C,H,W], "
                 "got ", s.to_string());
  if (s.rank() == 3) {
    current = image;
  } else {
    current = image.reshaped(tensor::Shape{s[1], s[2], s[3]});
  }

  std::vector<StepProfile> profiles;
  profiles.reserve(steps_.size());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const auto& step = steps_[i];
    StepProfile p;
    p.name = step->describe();
    p.terms = step->term_count();
    p.kernel_tier = step->kernel_tier();
    if (memory_plan_ != nullptr) {
      // The flat ops the step was built from: one op for plain steps, the
      // whole subtree for residuals.
      for (std::uint32_t op = step_ops_[i].first; op < step_ops_[i].second;
           ++op) {
        p.planned_scratch_bytes += memory_plan_->per_op()[op].scratch_bytes;
      }
    }
    NetworkOpCounts ops{};
    tensor::Tensor out;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      out = step->run(current, r == 0 ? &ops : nullptr);
    }
    const auto t1 = std::chrono::steady_clock::now();
    p.seconds = std::chrono::duration<double>(t1 - t0).count() / repeats;
    p.shifts = ops.shifts;
    p.adds = ops.adds;
    p.float_macs = ops.float_macs;
    profiles.push_back(std::move(p));
    current = std::move(out);
  }
  return profiles;
}

double QuantizedNetwork::evaluate(const data::Dataset& dataset, int top_k,
                                  NetworkOpCounts* counts) const {
  std::int64_t hits = 0;
  for (std::int64_t n = 0; n < dataset.size(); ++n) {
    tensor::Tensor logits = run(dataset.image(n), counts);
    const tensor::Tensor row =
        logits.reshaped(tensor::Shape{1, logits.numel()});
    hits += nn::top_k_accuracy(row, {dataset.labels[static_cast<std::size_t>(n)]},
                               top_k) > 0.5
                ? 1
                : 0;
  }
  return dataset.size() > 0
             ? static_cast<double>(hits) / static_cast<double>(dataset.size())
             : 0.0;
}

std::string QuantizedNetwork::describe() const {
  std::string out;
  for (const auto& step : steps_) {
    if (!out.empty()) out += " -> ";
    out += step->describe();
  }
  return out;
}

}  // namespace flightnn::inference
