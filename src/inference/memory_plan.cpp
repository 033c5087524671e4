#include "inference/memory_plan.hpp"

#include <algorithm>
#include <map>

#include "core/gemm.hpp"
#include "inference/shift_engine.hpp"
#include "runtime/scratch_arena.hpp"
#include "support/check.hpp"
#include "support/logging.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/ops.hpp"

namespace flightnn::inference {

using tensor::Shape;

// Shape-and-liveness simulation of one program. Mirrors the semantics of
// QuantizedNetwork::run / from_program exactly: flat pre-order op indices
// are the time axis (main -> shortcut -> post segment order equals
// execution order), every step output is a fresh pooled tensor, and chain
// entries (`current = input` in run/run_chain) are deep copies that the
// analysis models as their own short-lived activations. The structural
// checks shadow from_program's; a program this walker rejects would be
// rejected there too (try_build turns that into "no plan" so the builder
// reports the canonical error).
struct MemoryPlan::Analysis {
  const NetworkProgram& program;
  std::vector<OpMemory> per_op;
  std::vector<ActivationInterval> acts;
  std::vector<Shape> act_shapes;  // parallel to acts

  explicit Analysis(const NetworkProgram& p) : program(p) {
    const std::size_t n = p.ops.size();
    per_op.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      per_op[i].op = static_cast<std::uint32_t>(i);
      per_op[i].kind = p.ops[i].kind;
    }
    if (n == 0) return;
    FLIGHTNN_CHECK(p.input_c > 0 && p.input_h > 0 && p.input_w > 0,
                   "memory plan: bad input geometry [", p.input_c, ", ",
                   p.input_h, ", ", p.input_w, "]");
    // run()'s entry copy (`current = image`).
    std::size_t cur = define(0, Shape{p.input_c, p.input_h, p.input_w});
    std::size_t cursor = 0;
    while (cursor < n) cur = walk_op(cursor, n, cur);
    // The logits tensor is handed to the caller, so it lives through the
    // last op.
    use(cur, static_cast<std::uint32_t>(n - 1));
  }

  std::size_t define(std::uint32_t t, Shape shape) {
    acts.push_back(ActivationInterval{
        static_cast<std::size_t>(shape.numel()), t, t});
    act_shapes.push_back(std::move(shape));
    if (t < per_op.size()) {
      per_op[t].activation_bytes = acts.back().numel * sizeof(float);
    }
    return acts.size() - 1;
  }

  void use(std::size_t act, std::uint32_t t) {
    acts[act].last_use_op = std::max(acts[act].last_use_op, t);
  }

  // A fused shift-conv run (match_shift_conv_run, the rule from_program
  // fuses by) is one step: it reads its input and defines its output at the
  // conv's time, and the conv op carries the run's arena slot --
  // conv_scratch_elements of the pooled geometry plus the unpooled plane.
  std::size_t walk_shift_conv(const ShiftConvRun& run, std::size_t cur) {
    const auto t = static_cast<std::uint32_t>(run.conv);
    const ProgramOp& op = program.ops[run.conv];
    Shape in = act_shapes[cur];
    FLIGHTNN_CHECK(in.rank() == 3, "memory plan: shift conv at op ", t,
                   " expects CHW input, got ", in.to_string());
    const std::int64_t unpooled = run.pool ? in.numel() : 0;
    if (run.pool) {
      const ProgramOp& pool = program.ops[run.conv - 1];
      FLIGHTNN_CHECK(pool.window > 0 && pool.stride > 0 &&
                         in[1] >= pool.window && in[2] >= pool.window,
                     "memory plan: bad max pool at op ", t - 1, " on input ",
                     in.to_string());
      in = Shape{in[0], (in[1] - pool.window) / pool.stride + 1,
                 (in[2] - pool.window) / pool.stride + 1};
    }
    const std::int64_t out_c = op.out_channels, in_c = op.in_channels,
                       kernel = op.kernel;
    FLIGHTNN_CHECK(out_c > 0 && in_c > 0 && kernel > 0 && op.stride > 0 &&
                       op.padding >= 0,
                   "memory plan: bad shift conv geometry at op ", t);
    const tensor::ConvGeometry geom{in_c, in[1], in[2], kernel, op.stride,
                                    op.padding};
    const std::int64_t out_h = geom.out_h(), out_w = geom.out_w();
    FLIGHTNN_CHECK(out_h > 0 && out_w > 0, "memory plan: shift conv at op ", t,
                   " produces empty output from ", in.to_string());
    per_op[t].scratch_bytes =
        static_cast<std::size_t>(conv_scratch_elements(geom, unpooled)) *
        sizeof(std::int16_t);
    use(cur, t);
    return define(t, Shape{out_c, out_h, out_w});
  }

  // Walk the ops of a residual segment as a chain: entry deep copy, then
  // each op consuming the previous output. `t_fallback` is the time an
  // empty chain's pass-through copy happens at.
  std::size_t walk_chain(std::size_t& cursor, std::int64_t count,
                         std::size_t input_act, std::uint32_t t_fallback) {
    if (count == 0) {
      use(input_act, t_fallback);
      return define(t_fallback, act_shapes[input_act]);
    }
    const auto entry = static_cast<std::uint32_t>(cursor);
    use(input_act, entry);
    std::size_t chain = define(entry, act_shapes[input_act]);
    const std::size_t seg_end = cursor + static_cast<std::size_t>(count);
    while (cursor < seg_end) chain = walk_op(cursor, seg_end, chain);
    return chain;
  }

  // Walks the step starting at `cursor` inside its segment [cursor, end).
  std::size_t walk_op(std::size_t& cursor, std::size_t end,  // NOLINT(misc-no-recursion)
                      std::size_t cur) {
    if (const auto run = match_shift_conv_run(program.ops, cursor, end)) {
      cursor = run->end;
      return walk_shift_conv(*run, cur);
    }
    const auto t = static_cast<std::uint32_t>(cursor);
    const ProgramOp& op = program.ops[cursor];
    ++cursor;
    OpMemory& mem = per_op[t];
    const Shape in = act_shapes[cur];  // copy: acts may reallocate below
    switch (op.kind) {
      case ProgramOpKind::kQuantAct:
      case ProgramOpKind::kAffine:
      case ProgramOpKind::kLeakyRelu: {
        use(cur, t);
        return define(t, in);
      }
      case ProgramOpKind::kShiftConv:
        break;  // always starts a run, walked above
      case ProgramOpKind::kFloatConv: {
        FLIGHTNN_CHECK(in.rank() == 3, "memory plan: float conv at op ", t,
                       " expects CHW input, got ", in.to_string());
        const auto& ws = op.weights.shape();
        FLIGHTNN_CHECK(ws.rank() == 4, "memory plan: float conv weights at op ",
                       t, " must be OIHW");
        const tensor::ConvGeometry geom{ws[1], in[1], in[2], ws[2], op.stride,
                                        op.padding};
        FLIGHTNN_CHECK(geom.out_h() > 0 && geom.out_w() > 0,
                       "memory plan: float conv at op ", t,
                       " produces empty output");
        use(cur, t);
        return define(t, Shape{ws[0], geom.out_h(), geom.out_w()});
      }
      case ProgramOpKind::kMaxPool: {
        FLIGHTNN_CHECK(in.rank() == 3 && op.window > 0 && op.stride > 0 &&
                           in[1] >= op.window && in[2] >= op.window,
                       "memory plan: bad max pool at op ", t, " on input ",
                       in.to_string());
        const std::int64_t out_h = (in[1] - op.window) / op.stride + 1;
        const std::int64_t out_w = (in[2] - op.window) / op.stride + 1;
        use(cur, t);
        return define(t, Shape{in[0], out_h, out_w});
      }
      case ProgramOpKind::kGap: {
        FLIGHTNN_CHECK(in.rank() == 3, "memory plan: gap at op ", t,
                       " expects CHW input, got ", in.to_string());
        use(cur, t);
        return define(t, Shape{in[0]});
      }
      case ProgramOpKind::kFlatten: {
        use(cur, t);
        return define(t, Shape{in.numel()});
      }
      case ProgramOpKind::kShiftLinear: {
        const std::int64_t out_f = op.out_channels;
        FLIGHTNN_CHECK(out_f > 0 && op.in_channels > 0,
                       "memory plan: bad shift linear at op ", t);
        // The one-column panel the codes are written into.
        mem.scratch_bytes =
            static_cast<std::size_t>(core::int_gemm_pairs(op.in_channels) * 2) *
            sizeof(std::int16_t);
        use(cur, t);
        return define(t, Shape{out_f});
      }
      case ProgramOpKind::kFloatLinear: {
        const auto& ws = op.weights.shape();
        FLIGHTNN_CHECK(ws.rank() == 2, "memory plan: float linear weights at op ",
                       t, " must be [out, in]");
        if (in.rank() != 1) {
          // FloatLinearStep reshapes to a flat copy before the dot.
          define(t, Shape{in.numel()});
        }
        use(cur, t);
        return define(t, Shape{ws[0]});
      }
      case ProgramOpKind::kResidual: {
        const auto remaining =
            static_cast<std::int64_t>(program.ops.size() - cursor);
        FLIGHTNN_CHECK(op.main_ops >= 0 && op.shortcut_ops >= 0 &&
                           op.post_ops >= 0 &&
                           op.main_ops + op.shortcut_ops + op.post_ops <=
                               remaining,
                       "memory plan: residual at op ", t, " claims ",
                       op.main_ops + op.shortcut_ops + op.post_ops,
                       " child ops but only ", remaining, " remain");
        FLIGHTNN_CHECK(op.has_shortcut || op.shortcut_ops == 0,
                       "memory plan: residual without shortcut claims ",
                       op.shortcut_ops, " shortcut ops");
        // ResidualStep::run: main chain, then shortcut chain (both deep-copy
        // the input at entry), then `main_out += skip_out` in place, then the
        // post chain on main_out's buffer.
        const std::size_t main_out = walk_chain(cursor, op.main_ops, cur, t);
        std::size_t skip_out = acts.size();  // placeholder
        const bool skip_is_chain = op.has_shortcut && op.shortcut_ops > 0;
        if (skip_is_chain) {
          skip_out = walk_chain(cursor, op.shortcut_ops, cur,
                                static_cast<std::uint32_t>(cursor - 1));
        }
        // The add happens after both chains; its time is the last executed
        // child op (or the header itself when both chains are empty).
        const auto t_add = static_cast<std::uint32_t>(cursor - 1);
        if (!skip_is_chain) {
          // skip_out is a plain copy of the input made at the add.
          use(cur, t_add);
          skip_out = define(t_add, in);
        }
        use(main_out, t_add);
        use(skip_out, t_add);
        const std::size_t out =
            op.post_ops == 0 ? main_out
                             : walk_chain(cursor, op.post_ops, main_out, t_add);
        // The step's input and its main_out/skip_out locals are held until
        // it returns, so they stay live through the post chain.
        const auto t_end = static_cast<std::uint32_t>(cursor - 1);
        for (const std::size_t held : {cur, main_out, skip_out}) {
          use(held, t_end);
        }
        return out;
      }
    }
    FLIGHTNN_CHECK(false, "memory plan: unknown op kind ",
                   static_cast<std::uint32_t>(op.kind));
    return cur;  // unreachable
  }
};

MemoryPlan::MemoryPlan(const NetworkProgram& program)
    : MemoryPlan(Analysis(program)) {}

MemoryPlan::MemoryPlan(Analysis&& analysis)
    : per_op_(std::move(analysis.per_op)),
      activations_(std::move(analysis.acts)) {
  for (const OpMemory& mem : per_op_) {
    arena_capacity_bytes_ = std::max(arena_capacity_bytes_, mem.scratch_bytes);
  }
  arena_capacity_bytes_ = runtime::align_up(arena_capacity_bytes_);
  // Activation peak and per-numel working set: sweep every op time and count
  // the live intervals. O(ops * activations) -- trivially fast at network
  // sizes and only run at plan-compile time.
  std::map<std::size_t, std::size_t> peak_by_numel;
  std::map<std::size_t, std::size_t> live_by_numel;
  for (std::uint32_t t = 0; t < per_op_.size(); ++t) {
    std::size_t live_bytes = 0;
    live_by_numel.clear();
    for (const ActivationInterval& act : activations_) {
      if (act.def_op <= t && t <= act.last_use_op) {
        live_bytes += act.numel * sizeof(float);
        ++live_by_numel[act.numel];
      }
    }
    activation_peak_bytes_ = std::max(activation_peak_bytes_, live_bytes);
    for (const auto& [numel, count] : live_by_numel) {
      std::size_t& best = peak_by_numel[numel];
      best = std::max(best, count);
    }
  }
  working_set_.assign(peak_by_numel.begin(), peak_by_numel.end());
}

std::shared_ptr<const MemoryPlan> MemoryPlan::try_build(
    const NetworkProgram& program) {
  try {
    return std::make_shared<const MemoryPlan>(program);
  } catch (const support::CheckFailure& failure) {
    // Structurally invalid program: skip planning so from_program's walk
    // reports the canonical diagnostic (or, if only the planner objects,
    // the network runs unwarmed and its scratch grows on first use).
    support::log_debug() << "memory plan: analysis failed, no plan: "
                         << failure.what();
    return nullptr;
  }
}

void MemoryPlan::warm_thread() const {
  runtime::ScratchArena::current().reserve(runtime::Scratch::kPatchPanel,
                                          arena_capacity_bytes_);
  for (const auto& [numel, count] : working_set_) {
    tensor::pool::prewarm(numel, count);
  }
}

}  // namespace flightnn::inference
