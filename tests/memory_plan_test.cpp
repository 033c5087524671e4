// Tests for the memory planner (DESIGN.md §15): the NetworkProgram-level
// liveness analysis in inference/memory_plan.hpp.
//
// The planner's contract has two legs, each tested here:
//   1. Census: every shift op's patch-panel extent is exactly what its
//      kernel fetches, and the per-thread slot is sized to the largest of
//      them (scratch is op-local, so no two panels are ever live together).
//   2. Round trip: a plan rebuilt in the artifact loader matches the
//      in-process one, and both networks produce byte-identical logits at
//      every thread count.
//
// Running at a geometry the plan was not built for (the slot grows once)
// and the first-batch allocation guarantee are covered, with a counting
// operator new, by tests/arena_allocation_test.cpp.

#include "inference/memory_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/inference_request.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"
#include "support/rng.hpp"
#include "tensor/tensor.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define FLIGHTNN_MEMPLAN_TEST_HAS_PID 1
#endif

namespace flightnn {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Restore the thread count whatever a test does.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_num_threads(1); }
};

std::unique_ptr<nn::Sequential> make_model(int network_id, float width_scale,
                                           unsigned seed) {
  models::BuildOptions build;
  build.classes = 10;
  build.width_scale = width_scale;
  build.seed = seed;
  auto model = models::build_network(models::table1_network(network_id), build);
  core::install_lightnn(*model, 2);
  return model;
}

bool logits_equal(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    static_cast<std::size_t>(a[i].numel()) * sizeof(float)) !=
        0) {
      return false;
    }
  }
  return true;
}

runtime::InferenceRequest make_request(std::int64_t n, std::int64_t side,
                                       std::uint64_t seed) {
  support::Rng rng(seed);
  runtime::InferenceRequest request;
  for (std::int64_t i = 0; i < n; ++i) {
    request.images.push_back(Tensor::randn(Shape{3, side, side}, rng));
  }
  return request;
}

// --- 1. Census over real programs -------------------------------------------

TEST(MemoryPlanTest, Table1NetworkSlotIsLargestPanel) {
  for (const int id : {1, 2}) {  // VGG-7 and ResNet-18 (residual chains)
    auto model = make_model(id, 0.125F, 11);
    const auto program =
        inference::compile_program(*model, Shape{1, 3, 16, 16});
    const auto plan = inference::MemoryPlan::try_build(program);
    ASSERT_NE(plan, nullptr) << "network " << id;
    // Every shift op, and only a shift op, fetches a patch panel; the slot
    // is the largest of them, aligned.
    EXPECT_EQ(plan->per_op().size(), program.ops.size());
    std::size_t largest = 0;
    for (const auto& mem : plan->per_op()) {
      const bool shift = mem.kind == inference::ProgramOpKind::kShiftConv ||
                         mem.kind == inference::ProgramOpKind::kShiftLinear;
      EXPECT_EQ(mem.scratch_bytes > 0, shift) << "network " << id << " op "
                                              << mem.op;
      largest = std::max(largest, mem.scratch_bytes);
    }
    EXPECT_EQ(plan->arena_capacity_bytes(), runtime::align_up(largest))
        << "network " << id;
    EXPECT_GT(plan->arena_capacity_bytes(), 0U);
    EXPECT_GT(plan->activation_peak_bytes(), 0U);
  }
}

// The scratch slot holds int16 K-pairs padded to whole GEMM column tiles
// plus, for a conv, the zero-bordered int16 staging image its code pass
// writes, and its extent is exactly what ShiftConv2d/ShiftLinear::run
// fetch: the first VGG conv (3 -> c, 3x3, pad 1, no pool) at 16x16 needs
// pairs(27) x 256 columns and a 3 x 18 x 18 staging image, the linear head
// one column of pairs(in_features), the codes written in place.
TEST(MemoryPlanTest, PatchPanelExtentsAreExact) {
  auto model = make_model(1, 0.125F, 13);
  const auto program = inference::compile_program(*model, Shape{1, 3, 16, 16});
  const auto plan = inference::MemoryPlan::try_build(program);
  ASSERT_NE(plan, nullptr);
  bool saw_conv = false;
  bool saw_linear = false;
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    const auto& op = program.ops[i];
    const std::size_t bytes = plan->per_op()[i].scratch_bytes;
    if (op.kind == inference::ProgramOpKind::kShiftConv && !saw_conv) {
      saw_conv = true;
      EXPECT_EQ(bytes, std::size_t{14 * 256 * 2 + 3 * 18 * 18} *
                           sizeof(std::int16_t));
    }
    if (op.kind == inference::ProgramOpKind::kShiftLinear) {
      saw_linear = true;
      EXPECT_EQ(bytes, static_cast<std::size_t>((op.in_channels + 1) / 2 * 2) *
                           sizeof(std::int16_t));
    }
  }
  EXPECT_TRUE(saw_conv && saw_linear);
}

// --- 2. Artifact round trip ---------------------------------------------------

TEST(MemoryPlanTest, ArtifactRoundTripKeepsPlanAndLogits) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  auto model = make_model(1, 0.125F, 47);
  const auto program = inference::compile_program(*model, Shape{1, 3, 16, 16});

#ifdef FLIGHTNN_MEMPLAN_TEST_HAS_PID
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
#else
  const std::string pid = "0";
#endif
  const std::string path =
      ::testing::TempDir() + "/memory_plan_" + pid + ".flnart";
  serialize::save_artifact(program, path);

  const auto compiled =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  ASSERT_NE(compiled.memory_plan(), nullptr);
  {
    const serialize::ArtifactModel artifact =
        serialize::ArtifactModel::load(path);
    // The plan is rebuilt in-loader (format stays v1) and matches the
    // in-process one op for op.
    const inference::MemoryPlan* plan = artifact.network().memory_plan();
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(plan->arena_capacity_bytes(),
              compiled.memory_plan()->arena_capacity_bytes());
    ASSERT_EQ(plan->per_op().size(), compiled.memory_plan()->per_op().size());
    for (std::size_t i = 0; i < plan->per_op().size(); ++i) {
      EXPECT_EQ(plan->per_op()[i].scratch_bytes,
                compiled.memory_plan()->per_op()[i].scratch_bytes)
          << "op " << i;
    }

    const runtime::BatchRunner compiled_runner(compiled);
    const runtime::BatchRunner artifact_runner(artifact.network());
    const auto request = make_request(5, 16, 1234);
    for (const int threads : {1, 4}) {
      runtime::set_num_threads(threads);
      runtime::InferenceResult a, b;
      compiled_runner.run(request, a);
      artifact_runner.run(request, b);
      EXPECT_TRUE(logits_equal(a.logits, b.logits))
          << "artifact logits differ at " << threads << " threads";
    }
  }
  std::remove(path.c_str());
}

TEST(MemoryPlanTest, ProfileReportsPlannedScratch) {
  const ThreadCountGuard guard;
  runtime::set_num_threads(1);
  auto model = make_model(1, 0.125F, 19);
  const auto network =
      inference::QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  ASSERT_NE(network.memory_plan(), nullptr);
  support::Rng rng(3);
  const Tensor image = Tensor::randn(Shape{3, 16, 16}, rng);
  const auto steps = network.profile(image, /*repeats=*/1);
  // The steps' columns partition the plan's census: residual steps carry
  // their subtree's panels, every other step its own.
  std::size_t profiled = 0;
  for (const auto& step : steps) profiled += step.planned_scratch_bytes;
  std::size_t planned = 0;
  for (const auto& mem : network.memory_plan()->per_op()) {
    planned += mem.scratch_bytes;
  }
  EXPECT_GT(profiled, 0U) << "no step reported planned scratch";
  EXPECT_EQ(profiled, planned);
}

}  // namespace
}  // namespace flightnn
