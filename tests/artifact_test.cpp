// The deployment-artifact battery (DESIGN.md §13). Five legs:
//
//   1. Golden regression: a checked-in artifact built from a fully
//      deterministic ResNet must be byte-identical to a fresh build --
//      any layout drift (field order, alignment, section order, checksum)
//      fails loudly. Regenerate with FLIGHTNN_REGEN_GOLDEN=1.
//   2. Differential: logits from the mmap-loaded and heap-compiled paths
//      must be memcmp-identical, serial and under 4 threads; parsed plans
//      must equal the compiled ones stream for stream.
//   3. Corruption matrix: every structural violation (truncation, bad
//      magic/version/checksum, misaligned or escaping sections, invalid
//      op records and plan streams) throws the matching typed
//      ArtifactError -- never UB, never a wild allocation.
//   4. Fuzz corpus: the checked-in valid seeds load, and every corruption
//      seed is rejected past the version gate, so a format bump cannot
//      quietly turn the corpus into version-gate-only seeds.
//   5. Shared file: two processes mapping one artifact file produce
//      identical logits (fork-based, POSIX only).

#include "serialize/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "grid_fixture.hpp"
#include "inference/network_program.hpp"
#include "inference/quantized_network.hpp"
#include "models/networks.hpp"
#include "runtime/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define FLIGHTNN_TEST_HAS_FORK 1
#else
#define FLIGHTNN_TEST_HAS_FORK 0
#endif

#ifndef FLIGHTNN_GOLDEN_DIR
#define FLIGHTNN_GOLDEN_DIR "tests/golden"
#endif
#ifndef FLIGHTNN_ARTIFACT_CORPUS_DIR
#define FLIGHTNN_ARTIFACT_CORPUS_DIR "fuzz/corpus/artifact"
#endif

namespace flightnn::serialize {
namespace {

using inference::NetworkProgram;
using inference::ProgramOpKind;
using inference::QuantizedNetwork;
using tensor::Shape;
using tensor::Tensor;

// --- Deterministic fixture ------------------------------------------------
//
// The golden test needs byte-reproducibility across compilers and libms, so
// the model and images are grid-valued (tests/grid_fixture.hpp).

std::unique_ptr<nn::Sequential> deterministic_model() {
  // ResNet (Table 1 id 2): residual blocks exercise the segment encoding.
  return grid::grid_model(2, 0.125F, 17, 0x9E3779B9U);
}

const Shape kInputShape{1, 3, 16, 16};

Tensor deterministic_image(std::uint32_t salt) { return grid::grid_image(salt); }

NetworkProgram deterministic_program() {
  auto model = deterministic_model();
  return inference::compile_program(*model, kInputShape);
}

std::string golden_path() {
  return std::string(FLIGHTNN_GOLDEN_DIR) + "/table1_resnet18_w8.flnart";
}

std::string unique_temp_path(const char* stem) {
  static int counter = 0;
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(counter++) + ".flnart";
}

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

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file.is_open()) << path;
  file.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// Logits as raw bytes so comparisons are memcmp, not EXPECT_NEAR.
std::vector<std::uint8_t> logits_bytes(const QuantizedNetwork& network,
                                       int images) {
  std::vector<std::uint8_t> bytes;
  for (int n = 0; n < images; ++n) {
    const Tensor logits = network.run(deterministic_image(
        static_cast<std::uint32_t>(n)));
    const auto* p = reinterpret_cast<const std::uint8_t*>(logits.data());
    bytes.insert(bytes.end(),
                 p, p + static_cast<std::size_t>(logits.numel()) * sizeof(float));
  }
  return bytes;
}

// --- Golden regression ----------------------------------------------------

TEST(GoldenArtifact, BuildIsByteIdenticalToCheckedInBlob) {
  const std::vector<std::uint8_t> blob = build_artifact(deterministic_program());
  if (std::getenv("FLIGHTNN_REGEN_GOLDEN") != nullptr) {
    write_file(golden_path(), blob);
    GTEST_SKIP() << "regenerated " << golden_path() << " (" << blob.size()
                 << " bytes)";
  }
  const std::vector<std::uint8_t> golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing golden blob " << golden_path()
      << "; regenerate with FLIGHTNN_REGEN_GOLDEN=1";
  ASSERT_EQ(blob.size(), golden.size()) << "artifact layout drifted";
  EXPECT_EQ(std::memcmp(blob.data(), golden.data(), blob.size()), 0)
      << "artifact bytes drifted from the golden blob; if the format "
         "changed intentionally, bump kArtifactVersion and regenerate";
}

TEST(GoldenArtifact, BuildIsDeterministicAcrossRuns) {
  const NetworkProgram program = deterministic_program();
  EXPECT_EQ(build_artifact(program), build_artifact(program));
}

TEST(GoldenArtifact, CheckedInBlobLoadsAndMatchesHeapLogits) {
  const std::vector<std::uint8_t> golden = read_file(golden_path());
  if (golden.empty()) GTEST_SKIP() << "no golden blob yet";
  const ArtifactModel model = ArtifactModel::load_buffer(golden.data(),
                                                         golden.size());
  EXPECT_EQ(model.input_c(), 3);
  EXPECT_EQ(model.input_h(), 16);
  EXPECT_EQ(model.input_w(), 16);
  const QuantizedNetwork heap =
      QuantizedNetwork::from_program(deterministic_program());
  EXPECT_EQ(logits_bytes(model.network(), 4), logits_bytes(heap, 4));
}

// --- Differential: mmap vs heap, serial and threaded ----------------------

TEST(ArtifactDifferential, MmapAndHeapLogitsAreMemcmpIdentical) {
  const NetworkProgram program = deterministic_program();
  const std::vector<std::uint8_t> blob = build_artifact(program);
  const std::string path = unique_temp_path("artifact_diff");
  write_file(path, blob);

  const ArtifactModel mapped = ArtifactModel::load(path);
  const ArtifactModel heap_copy = ArtifactModel::load_buffer(blob.data(),
                                                             blob.size());
  const QuantizedNetwork compiled =
      QuantizedNetwork::from_program(deterministic_program());

  for (const int threads : {1, 4}) {
    runtime::set_num_threads(threads);
    const auto reference = logits_bytes(compiled, 4);
    EXPECT_EQ(logits_bytes(mapped.network(), 4), reference)
        << "mmap path diverged at " << threads << " threads";
    EXPECT_EQ(logits_bytes(heap_copy.network(), 4), reference)
        << "heap-buffer path diverged at " << threads << " threads";
  }
  runtime::set_num_threads(1);
  std::remove(path.c_str());
}

// --- Round trip: parsed plans equal the compiled ones --------------------

template <typename T>
bool same_stream(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// The loader copies every structure out with memcpy, so the blob may sit at
// any address: parse it from an odd one.
TEST(ArtifactRoundTrip, ParsedPlansEqualTheCompiledPlans) {
  const NetworkProgram compiled = deterministic_program();
  const std::vector<std::uint8_t> blob = build_artifact(compiled);
  std::vector<std::uint8_t> shifted(blob.size() + 1);
  std::memcpy(shifted.data() + 1, blob.data(), blob.size());
  const NetworkProgram parsed = parse_artifact(shifted.data() + 1, blob.size());
  ASSERT_EQ(parsed.ops.size(), compiled.ops.size());
  int shift_ops = 0;
  for (std::size_t i = 0; i < compiled.ops.size(); ++i) {
    const auto& want = compiled.ops[i];
    const auto& got = parsed.ops[i];
    ASSERT_EQ(got.kind, want.kind) << "op " << i;
    if (want.kind != ProgramOpKind::kShiftConv &&
        want.kind != ProgramOpKind::kShiftLinear) {
      continue;
    }
    ++shift_ops;
    // Both paths carry plans, never the float weights: a shift op's plan is
    // its only form.
    EXPECT_TRUE(want.weights.empty()) << "op " << i;
    EXPECT_TRUE(got.weights.empty()) << "op " << i;
    EXPECT_EQ(want.plan.filters, want.out_channels) << "op " << i;
    EXPECT_GT(want.plan.entries(), 0) << "op " << i;
    EXPECT_EQ(got.plan.filters, want.plan.filters) << "op " << i;
    EXPECT_TRUE(same_stream(got.plan.element, want.plan.element)) << "op " << i;
    EXPECT_TRUE(same_stream(got.plan.shift, want.plan.shift)) << "op " << i;
    EXPECT_TRUE(same_stream(got.plan.sign, want.plan.sign)) << "op " << i;
    EXPECT_TRUE(same_stream(got.plan.filter_begin, want.plan.filter_begin))
        << "op " << i;
  }
  EXPECT_GT(shift_ops, 10) << "ResNet-18 should lower many shift layers";

  const ArtifactModel unaligned =
      ArtifactModel::load_buffer(shifted.data() + 1, blob.size());
  EXPECT_EQ(logits_bytes(unaligned.network(), 4),
            logits_bytes(QuantizedNetwork::from_program(deterministic_program()),
                         4));
}

// --- Corruption matrix ----------------------------------------------------

struct CorruptionCase {
  const char* name;
  ArtifactErrorCode expected;
  bool reseal;  // recompute the checksum so deeper validators are reached
  void (*mutate)(std::vector<std::uint8_t>& blob);
};

ArtifactHeader read_header(const std::vector<std::uint8_t>& blob) {
  ArtifactHeader header;
  std::memcpy(&header, blob.data(), sizeof(header));
  return header;
}

void write_header(std::vector<std::uint8_t>& blob, const ArtifactHeader& header) {
  std::memcpy(blob.data(), &header, sizeof(header));
}

std::vector<SectionDesc> read_sections(const std::vector<std::uint8_t>& blob) {
  const ArtifactHeader header = read_header(blob);
  std::vector<SectionDesc> sections(header.section_count);
  std::memcpy(sections.data(), blob.data() + sizeof(ArtifactHeader),
              sections.size() * sizeof(SectionDesc));
  return sections;
}

void write_section(std::vector<std::uint8_t>& blob, std::size_t index,
                   const SectionDesc& desc) {
  std::memcpy(blob.data() + sizeof(ArtifactHeader) + index * sizeof(SectionDesc),
              &desc, sizeof(desc));
}

// First section of `kind`; aborts the test if absent.
SectionDesc find_section(const std::vector<std::uint8_t>& blob,
                         SectionKind kind, std::size_t* index = nullptr) {
  const auto sections = read_sections(blob);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].kind == static_cast<std::uint32_t>(kind)) {
      if (index != nullptr) *index = i;
      return sections[i];
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<int>(kind);
  return {};
}

const CorruptionCase kCorruptionMatrix[] = {
    {"empty file", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.clear(); }},
    {"file shorter than the header", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.resize(64); }},
    {"payload truncated mid-section", ArtifactErrorCode::kTruncated, false,
     [](std::vector<std::uint8_t>& blob) { blob.resize(blob.size() - 32); }},
    {"flipped magic byte", ArtifactErrorCode::kBadMagic, false,
     [](std::vector<std::uint8_t>& blob) { blob[0] ^= 0xFF; }},
    {"future format version", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.version = kArtifactVersion + 7;
       write_header(blob, header);
     }},
    {"previous format version (1)", ArtifactErrorCode::kBadVersion, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.version = 1;
       write_header(blob, header);
     }},
    {"inconsistent header geometry", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.section_table_offset = 64;
       write_header(blob, header);
     }},
    {"trailing garbage past file_bytes", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) { blob.push_back(0xAB); }},
    {"zero input geometry", ArtifactErrorCode::kBadHeader, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.input_c = 0;
       write_header(blob, header);
     }},
    {"single flipped payload bit", ArtifactErrorCode::kBadChecksum, false,
     [](std::vector<std::uint8_t>& blob) { blob.back() ^= 0x01; }},
    {"section count beyond the file", ArtifactErrorCode::kBadSection, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.section_count = 0x10000000U;
       write_header(blob, header);
       // The count lives in the header, outside the checksum; no reseal.
     }},
    {"misaligned section offset", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].offset += 8;
       write_section(blob, 1, sections[1]);
     }},
    {"section escaping the file", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].bytes = ~std::uint64_t{0} - sections[1].offset + 1;
       write_section(blob, 1, sections[1]);
     }},
    {"unknown section kind", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].kind = 0xDEAD;
       write_section(blob, 1, sections[1]);
     }},
    {"retired v1 section kind (filter gain)", ArtifactErrorCode::kBadSection,
     true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[1].kind = 9;
       write_section(blob, 1, sections[1]);
     }},
    {"program section replaced", ArtifactErrorCode::kBadSection, true,
     [](std::vector<std::uint8_t>& blob) {
       auto sections = read_sections(blob);
       sections[0].kind = static_cast<std::uint32_t>(SectionKind::kBias);
       write_section(blob, 0, sections[0]);
     }},
    {"op count disagreeing with the program section",
     ArtifactErrorCode::kBadProgram, false,
     [](std::vector<std::uint8_t>& blob) {
       auto header = read_header(blob);
       header.op_count += 1;
       write_header(blob, header);
     }},
    {"unknown op kind", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc program = find_section(blob, SectionKind::kProgram);
       OpRecord record;
       std::memcpy(&record, blob.data() + program.offset, sizeof(record));
       record.kind = 99;
       std::memcpy(blob.data() + program.offset, &record, sizeof(record));
     }},
    {"residual segment overrunning the op stream",
     ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc program = find_section(blob, SectionKind::kProgram);
       const ArtifactHeader header = read_header(blob);
       for (std::uint32_t i = 0; i < header.op_count; ++i) {
         OpRecord record;
         std::memcpy(&record, blob.data() + program.offset + i * sizeof(record),
                     sizeof(record));
         if (record.kind ==
             static_cast<std::uint32_t>(ProgramOpKind::kResidual)) {
           record.main_ops = header.op_count + 100;
           std::memcpy(blob.data() + program.offset + i * sizeof(record),
                       &record, sizeof(record));
           return;
         }
       }
       ADD_FAILURE() << "no residual op in the fixture network";
     }},
    {"plan sign outside {-1, +1}", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc sign = find_section(blob, SectionKind::kPlanSign);
       blob[sign.offset] = 3;
     }},
    {"plan shift beyond the exponent range", ArtifactErrorCode::kBadProgram,
     true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc shift = find_section(blob, SectionKind::kPlanShift);
       blob[shift.offset] = 63;
     }},
    {"plan element out of bounds", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc element = find_section(blob, SectionKind::kPlanElement);
       const std::int32_t hostile = 0x7FFFFFFF;
       std::memcpy(blob.data() + element.offset, &hostile, sizeof(hostile));
     }},
    {"non-monotone filter_begin", ArtifactErrorCode::kBadProgram, true,
     [](std::vector<std::uint8_t>& blob) {
       const SectionDesc begin = find_section(blob,
                                              SectionKind::kPlanFilterBegin);
       std::int64_t first = 0;
       std::memcpy(&first, blob.data() + begin.offset + 8, sizeof(first));
       first = -first - 1;
       std::memcpy(blob.data() + begin.offset + 8, &first, sizeof(first));
     }},
};

TEST(ArtifactCorruption, EveryCorruptionClassYieldsItsTypedError) {
  const std::vector<std::uint8_t> pristine =
      build_artifact(deterministic_program());
  // The pristine blob must load -- otherwise the matrix proves nothing.
  ASSERT_NO_THROW(ArtifactModel::load_buffer(pristine.data(), pristine.size()));

  for (const CorruptionCase& test_case : kCorruptionMatrix) {
    std::vector<std::uint8_t> blob = pristine;
    test_case.mutate(blob);
    if (test_case.reseal) rewrite_artifact_checksum(blob);
    try {
      (void)ArtifactModel::load_buffer(blob.data(), blob.size());
      ADD_FAILURE() << test_case.name << ": loader accepted corrupt artifact";
    } catch (const ArtifactError& error) {
      EXPECT_EQ(error.code(), test_case.expected)
          << test_case.name << " threw \"" << error.what() << "\"";
    } catch (const std::exception& error) {
      ADD_FAILURE() << test_case.name << ": untyped exception " << error.what();
    }
  }
}

TEST(ArtifactCorruption, MmapLoadRejectsCorruptFileToo) {
  std::vector<std::uint8_t> blob = build_artifact(deterministic_program());
  blob[3] ^= 0x80;  // magic
  const std::string path = unique_temp_path("artifact_corrupt");
  write_file(path, blob);
  try {
    (void)ArtifactModel::load(path);
    ADD_FAILURE() << "mmap loader accepted corrupt artifact";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), ArtifactErrorCode::kBadMagic);
  }
  std::remove(path.c_str());
}

TEST(ArtifactCorruption, MissingFileIsATypedIoError) {
  try {
    (void)ArtifactModel::load(unique_temp_path("artifact_missing"));
    ADD_FAILURE() << "loader accepted a nonexistent path";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), ArtifactErrorCode::kIo);
  }
}

// --- Fuzz corpus: seeds stay past the version gate ------------------------

std::string corpus_seed(const char* name) {
  return std::string(FLIGHTNN_ARTIFACT_CORPUS_DIR) + "/" + name;
}

TEST(ArtifactCorpus, SeedsMatchTheCurrentFormat) {
  for (const char* valid : {"artifact_vgg_valid", "artifact_resnet_valid"}) {
    const std::vector<std::uint8_t> blob = read_file(corpus_seed(valid));
    ASSERT_FALSE(blob.empty()) << "missing corpus seed " << valid;
    EXPECT_NO_THROW((void)ArtifactModel::load_buffer(blob.data(), blob.size()))
        << valid << " no longer loads; regenerate the corpus with "
                    "make_seed_corpus";
  }
  // Every corruption seed must be built at the current version, so it
  // reaches the validator it was made for. Only artifact_bad_version is
  // meant to stop at the version gate.
  const char* const corrupt[] = {
      "artifact_bad_checksum",      "artifact_bad_filter_begin",
      "artifact_bad_input_geom",    "artifact_bad_magic",
      "artifact_bad_op_kind",       "artifact_bad_shift",
      "artifact_bad_sign",          "artifact_section_misaligned",
      "artifact_section_oob",       "artifact_truncated_header",
      "artifact_truncated_payload"};
  for (const char* name : corrupt) {
    const std::vector<std::uint8_t> blob = read_file(corpus_seed(name));
    ASSERT_FALSE(blob.empty()) << "missing corpus seed " << name;
    try {
      (void)ArtifactModel::load_buffer(blob.data(), blob.size());
      ADD_FAILURE() << name << ": loader accepted a corruption seed";
    } catch (const ArtifactError& error) {
      EXPECT_NE(error.code(), ArtifactErrorCode::kBadVersion)
          << name << " only reaches the version gate; regenerate the corpus "
                     "with make_seed_corpus";
    }
  }
  const std::vector<std::uint8_t> bad_version =
      read_file(corpus_seed("artifact_bad_version"));
  ASSERT_FALSE(bad_version.empty());
  try {
    (void)ArtifactModel::load_buffer(bad_version.data(), bad_version.size());
    ADD_FAILURE() << "loader accepted artifact_bad_version";
  } catch (const ArtifactError& error) {
    EXPECT_EQ(error.code(), ArtifactErrorCode::kBadVersion);
  }
}

// --- Two processes, one file ----------------------------------------------

#if FLIGHTNN_TEST_HAS_FORK
TEST(ArtifactSharedMapping, TwoProcessesProduceIdenticalLogits) {
  runtime::set_num_threads(1);  // keep the process single-threaded for fork
  const std::string path = unique_temp_path("artifact_shared");
  save_artifact(deterministic_program(), path);

  const ArtifactModel parent_model = ArtifactModel::load(path);
  const std::vector<std::uint8_t> parent_logits =
      logits_bytes(parent_model.network(), 2);

  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: map the same file independently and stream logits back.
    ::close(fds[0]);
    int status = 1;
    try {
      const ArtifactModel model = ArtifactModel::load(path);
      const std::vector<std::uint8_t> logits = logits_bytes(model.network(), 2);
      std::size_t written = 0;
      while (written < logits.size()) {
        const ssize_t n = ::write(fds[1], logits.data() + written,
                                  logits.size() - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      status = written == logits.size() ? 0 : 1;
    } catch (...) {
      status = 2;
    }
    ::close(fds[1]);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::vector<std::uint8_t> child_logits(parent_logits.size());
  std::size_t received = 0;
  while (received < child_logits.size()) {
    const ssize_t n = ::read(fds[0], child_logits.data() + received,
                             child_logits.size() - received);
    if (n <= 0) break;
    received += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exit status " << status;
  ASSERT_EQ(received, parent_logits.size());
  EXPECT_EQ(child_logits, parent_logits);
  std::remove(path.c_str());
}
#endif  // FLIGHTNN_TEST_HAS_FORK

}  // namespace
}  // namespace flightnn::serialize
