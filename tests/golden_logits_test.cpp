// Golden logits: raw float logits pinned to checked-in bytes, so a change to
// the inference path is held to the numbers an earlier build produced, not
// only to itself. Two fixtures, both grid-valued (tests/grid_fixture.hpp):
//
//   - table1_resnet18_w8.logits: the checked-in golden artifact
//     (table1_resnet18_w8.flnart), loaded and run on its 4 grid images;
//   - vgg7_w8.logits: a VGG-7 program compiled in memory from a fixed seed
//     at width 0.125, on the same 4 images.
//
// Comparisons are memcmp at 1 and 4 threads. Regenerate only with
// FLIGHTNN_REGEN_GOLDEN=1, and record every regeneration in CHANGES.md: a
// regenerated golden no longer proves anything about the change that
// regenerated it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "grid_fixture.hpp"
#include "inference/quantized_network.hpp"
#include "runtime/thread_pool.hpp"
#include "serialize/artifact.hpp"

#ifndef FLIGHTNN_GOLDEN_DIR
#define FLIGHTNN_GOLDEN_DIR "tests/golden"
#endif

namespace flightnn {
namespace {

using inference::QuantizedNetwork;

constexpr int kImages = 4;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return {};
  const auto size = static_cast<std::size_t>(file.tellg());
  std::vector<std::uint8_t> bytes(size);
  file.seekg(0);
  file.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
  return bytes;
}

std::vector<std::uint8_t> logits_bytes(const QuantizedNetwork& network) {
  std::vector<std::uint8_t> bytes;
  for (int n = 0; n < kImages; ++n) {
    const tensor::Tensor logits =
        network.run(grid::grid_image(static_cast<std::uint32_t>(n)));
    const auto* p = reinterpret_cast<const std::uint8_t*>(logits.data());
    bytes.insert(bytes.end(), p,
                 p + static_cast<std::size_t>(logits.numel()) * sizeof(float));
  }
  return bytes;
}

// Memcmp `network`'s logits against the golden file `name` at 1 and 4
// threads, or rewrite the file under FLIGHTNN_REGEN_GOLDEN.
void check_golden(const QuantizedNetwork& network, const std::string& name) {
  const std::string path = std::string(FLIGHTNN_GOLDEN_DIR) + "/" + name;
  runtime::set_num_threads(1);
  const std::vector<std::uint8_t> logits = logits_bytes(network);
  if (std::getenv("FLIGHTNN_REGEN_GOLDEN") != nullptr) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.is_open()) << path;
    file.write(reinterpret_cast<const char*>(logits.data()),
               static_cast<std::streamsize>(logits.size()));
    GTEST_SKIP() << "regenerated " << path << " (" << logits.size()
                 << " bytes)";
  }
  const std::vector<std::uint8_t> golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden logits " << path;
  EXPECT_EQ(logits, golden) << "logits drifted from " << path;
  runtime::set_num_threads(4);
  EXPECT_EQ(logits_bytes(network), golden)
      << "logits drifted from " << path << " at 4 threads";
  runtime::set_num_threads(1);
}

TEST(GoldenLogits, ResNet18ArtifactMatchesCheckedInBytes) {
  const std::vector<std::uint8_t> blob = read_file(
      std::string(FLIGHTNN_GOLDEN_DIR) + "/table1_resnet18_w8.flnart");
  ASSERT_FALSE(blob.empty()) << "missing golden artifact";
  const serialize::ArtifactModel model =
      serialize::ArtifactModel::load_buffer(blob.data(), blob.size());
  check_golden(model.network(), "table1_resnet18_w8.logits");
}

TEST(GoldenLogits, Vgg7ProgramMatchesCheckedInBytes) {
  auto model = grid::grid_model(1, 0.125F, 29, 0x6A09E667U);
  const QuantizedNetwork network =
      QuantizedNetwork::compile(*model, tensor::Shape{1, 3, 16, 16});
  check_golden(network, "vgg7_w8.logits");
}

}  // namespace
}  // namespace flightnn
