// Regenerates the checked-in seed corpus under fuzz/corpus/.
//
//   make_seed_corpus <output-dir>     (normally fuzz/corpus)
//
// Two kinds of seeds are emitted per harness:
//
//   - valid blobs produced by the repo's own serializers, so the fuzzers
//     start from deep inside the accepted grammar instead of spending their
//     budget rediscovering the magic header;
//   - one regression seed per parser hardening check (bad magic, truncation,
//     out-of-range exponent window, hostile layer count, k above k_max,
//     inconsistent nibble stream, exponent code above e_max, ...). Replaying
//     these in tier-1 ctest keeps every past finding fixed.
//
// Every seed is deterministic: rerunning this tool reproduces the corpus
// byte for byte.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/quantize_model.hpp"
#include "inference/network_program.hpp"
#include "models/networks.hpp"
#include "nn/sequential.hpp"
#include "serialize/artifact.hpp"
#include "serialize/model_io.hpp"

namespace fs = std::filesystem;

namespace {

using Bytes = std::vector<std::uint8_t>;

void write_seed(const fs::path& dir, const std::string& name,
                const Bytes& data) {
  std::ofstream file(dir / name, std::ios::binary);
  file.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).string().c_str());
    std::exit(1);
  }
  std::printf("  %-28s %5zu bytes\n", name.c_str(), data.size());
}

// Little-endian u32 patch at a fixed offset (the pack header is
// magic[10] e_min@10 e_max@14 flush@18 k_max@22 layer_count@26).
void patch_u32(Bytes& data, std::size_t offset, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    data[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

// Deterministic filler for the unstructured seeds (xorshift32).
Bytes pseudo_random(std::size_t count, std::uint32_t state) {
  Bytes data(count);
  for (auto& byte : data) {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    byte = static_cast<std::uint8_t>(state);
  }
  return data;
}

// The same model fuzz_model_io replays checkpoints against; the valid
// checkpoint seed must load cleanly there.
std::unique_ptr<flightnn::nn::Sequential> harness_model() {
  flightnn::models::BuildOptions build;
  build.classes = 10;
  build.width_scale = 0.125F;
  build.seed = 7;
  return flightnn::models::build_network(flightnn::models::table1_network(1),
                                         build);
}

void emit_model_io(const fs::path& dir) {
  using flightnn::serialize::PackedLayer;
  using flightnn::serialize::PackedModel;

  auto model = harness_model();
  write_seed(dir, "ckpt_valid", flightnn::serialize::save_state(*model));

  flightnn::core::install_lightnn(*model, 2);
  const PackedModel packed = flightnn::serialize::pack_quantized(*model);
  const Bytes pack_valid = flightnn::serialize::serialize_packed(packed);
  write_seed(dir, "pack_valid", pack_valid);

  {
    Bytes ckpt = flightnn::serialize::save_state(*model);
    ckpt[0] ^= 0xFF;
    write_seed(dir, "ckpt_bad_magic", ckpt);
    ckpt[0] ^= 0xFF;
    ckpt.resize(ckpt.size() / 2);
    write_seed(dir, "ckpt_truncated", ckpt);
  }

  {
    Bytes mutated = pack_valid;
    mutated[0] ^= 0xFF;
    write_seed(dir, "pack_bad_magic", mutated);
  }
  {
    Bytes mutated = pack_valid;
    mutated.resize(mutated.size() * 2 / 3);
    write_seed(dir, "pack_truncated", mutated);
  }
  {
    Bytes mutated = pack_valid;
    patch_u32(mutated, 18, 2);  // flush_to_zero must be exactly 0 or 1
    write_seed(dir, "pack_flush_flag_2", mutated);
  }
  {
    Bytes mutated = pack_valid;
    patch_u32(mutated, 10, 0);  // e_min = -128, below exp2_int's range
    write_seed(dir, "pack_emin_oob", mutated);
  }
  {
    Bytes mutated = pack_valid;
    patch_u32(mutated, 26, 0xFFFFFFFFU);  // hostile up-front allocation
    write_seed(dir, "pack_huge_layer_count", mutated);
  }

  {
    // filter_k entry above the model-wide k_max.
    PackedModel hostile;
    hostile.k_max = 1;
    PackedLayer layer;
    layer.filters = 1;
    layer.elements_per_filter = 1;
    layer.filter_k = {3};
    layer.nibbles = {0x11};  // matches term_count so only the k check fires
    hostile.layers.push_back(layer);
    write_seed(dir, "pack_k_over_kmax",
               flightnn::serialize::serialize_packed(hostile));
  }
  {
    // Nibble stream longer than filter_k implies (smuggled payload).
    PackedModel hostile;
    hostile.k_max = 2;
    PackedLayer layer;
    layer.filters = 1;
    layer.elements_per_filter = 2;
    layer.filter_k = {1};        // 2 terms -> 1 nibble byte expected
    layer.nibbles = {0x11, 0x11};
    hostile.layers.push_back(layer);
    write_seed(dir, "pack_bad_nibble_len",
               flightnn::serialize::serialize_packed(hostile));
  }
  {
    // Parses cleanly, but the single nibble code names exponent e_min + 6,
    // above the pack's own e_max: unpack_layer must reject it.
    PackedModel hostile;
    hostile.pow2.e_min = -6;
    hostile.pow2.e_max = -4;
    hostile.k_max = 1;
    PackedLayer layer;
    layer.filters = 1;
    layer.elements_per_filter = 1;
    layer.filter_k = {1};
    layer.nibbles = {0x07};  // +2^(e_min + 6)
    hostile.layers.push_back(layer);
    write_seed(dir, "pack_exp_above_emax",
               flightnn::serialize::serialize_packed(hostile));
  }

  write_seed(dir, "empty", {});
  write_seed(dir, "random_256", pseudo_random(256, 0x5EEDU));
}

void emit_shift_plan(const fs::path& dir) {
  // Byte programs for fuzz_shift_plan's decoder: header is
  // { e_min, e_max_span, flush, filters, terms, in_channels, kernel,
  //   elements_per_filter }, then per term { filter, level, count, then
  //   count x { sign, exponent } }.
  write_seed(dir, "empty", {});
  write_seed(dir, "zeros_16", Bytes(16, 0));
  write_seed(dir, "valid_small",
             {5, 6, 1, 4, 2, 3, 3, 9,
              /*term0*/ 0, 1, 2, /*w*/ 1, 0xFB, /*w*/ 0xFF, 0xFC,
              /*term1*/ 3, 0, 1, /*w*/ 1, 0xFA});
  write_seed(dir, "oob_filter",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0x7F, 0, 1, /*w*/ 1, 0xFB});
  write_seed(dir, "negative_filter",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0x80, 0, 1, /*w*/ 1, 0xFB});
  write_seed(dir, "bad_sign",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0, 0, 1, /*w*/ 5, 0xFB});
  write_seed(dir, "far_exponent",
             {5, 6, 0, 2, 1, 1, 1, 4,
              /*term0*/ 0, 0, 1, /*w*/ 1, 0x40});
  write_seed(dir, "zero_geometry",
             {5, 6, 0, 2, 1, 0, 0, 4,
              /*term0*/ 0, 0, 1, /*w*/ 1, 0xFB});
  write_seed(dir, "max_counts", pseudo_random(512, 0xF1A9U));
  // Adopted-engine seeds. A 64-level window (e_min -63) lets exponents
  // reach far above e_min: a shift-15 weight is 2^15, one past int16, so
  // the panel goes int64 and runs; a shift-61 pair saturates the gain, so
  // run must reject. Zero-sign terms leave every filter pruned (no GEMM
  // rows).
  write_seed(dir, "wide_multiplier",
             {62, 63, 1, 2, 2, 1, 2, 4,
              /*term0*/ 0, 0, 3, /*w*/ 1, 0xD0, /*w*/ 0xFF, 0xD1, /*w*/ 1, 0xC1,
              /*term1*/ 1, 1, 2, /*w*/ 1, 0xD0, /*w*/ 1, 0xD0});
  write_seed(dir, "oversized_multiplier",
             {62, 63, 1, 2, 1, 1, 2, 4,
              /*term0*/ 1, 0, 2, /*w*/ 1, 0xFE, /*w*/ 0xFF, 0xFE});
  write_seed(dir, "all_pruned",
             {5, 6, 1, 4, 1, 2, 3, 18,
              /*term0*/ 2, 0, 3, /*w*/ 0, 0xFB, /*w*/ 0, 0xFC, /*w*/ 0, 0xFA});
}

// One deterministic seed per corruption class of the artifact loader's
// validation ladder (header, checksum, section table, op records, plan
// streams), plus two valid artifacts -- a tiny VGG and a tiny ResNet (for
// residual-segment coverage) -- built by the repo's own compiler.
void emit_artifact(const fs::path& dir) {
  namespace ser = flightnn::serialize;
  using ser::ArtifactHeader;
  using ser::OpRecord;
  using ser::SectionDesc;
  using ser::SectionKind;

  const auto compile_blob = [](int network_id, float width_scale) {
    flightnn::models::BuildOptions build;
    build.classes = 4;
    build.width_scale = width_scale;
    build.seed = 7;
    auto model = flightnn::models::build_network(
        flightnn::models::table1_network(network_id), build);
    flightnn::core::install_lightnn(*model, 2);
    const auto program = flightnn::inference::compile_program(
        *model, flightnn::tensor::Shape{1, 3, 8, 8});
    return ser::build_artifact(program);
  };
  const Bytes vgg = compile_blob(4, 0.125F);
  write_seed(dir, "artifact_vgg_valid", vgg);
  write_seed(dir, "artifact_resnet_valid", compile_blob(2, 0.0625F));

  const auto header_of = [](const Bytes& blob) {
    ArtifactHeader header;
    std::memcpy(&header, blob.data(), sizeof(header));
    return header;
  };
  const auto patch_header = [&](Bytes blob, auto mutate) {
    ArtifactHeader header = header_of(blob);
    mutate(header);
    std::memcpy(blob.data(), &header, sizeof(header));
    return blob;
  };
  const auto section_at = [&](const Bytes& blob, std::size_t index) {
    SectionDesc desc;
    std::memcpy(&desc, blob.data() + sizeof(ArtifactHeader) +
                           index * sizeof(SectionDesc), sizeof(desc));
    return desc;
  };
  // Find a section by kind; exits if the fixture lacks it.
  const auto find_kind = [&](const Bytes& blob, SectionKind kind) {
    const ArtifactHeader header = header_of(blob);
    for (std::uint32_t i = 0; i < header.section_count; ++i) {
      const SectionDesc desc = section_at(blob, i);
      if (desc.kind == static_cast<std::uint32_t>(kind)) return desc;
    }
    std::fprintf(stderr, "artifact fixture lacks section kind %u\n",
                 static_cast<unsigned>(kind));
    std::exit(1);
  };
  const auto resealed = [](Bytes blob) {
    ser::rewrite_artifact_checksum(blob);
    return blob;
  };

  {
    Bytes mutated = vgg;
    mutated[0] ^= 0xFF;
    write_seed(dir, "artifact_bad_magic", mutated);
  }
  write_seed(dir, "artifact_bad_version",
             patch_header(vgg, [](ArtifactHeader& h) { h.version = 99; }));
  write_seed(dir, "artifact_bad_input_geom",
             patch_header(vgg, [](ArtifactHeader& h) { h.input_c = -1; }));
  {
    Bytes mutated = vgg;
    mutated.back() ^= 0x01;  // payload flip without reseal
    write_seed(dir, "artifact_bad_checksum", mutated);
  }
  {
    Bytes mutated = vgg;
    mutated.resize(sizeof(ArtifactHeader) / 2);
    write_seed(dir, "artifact_truncated_header", mutated);
    mutated = vgg;
    mutated.resize(mutated.size() - 48);
    write_seed(dir, "artifact_truncated_payload", mutated);
  }
  {
    Bytes mutated = vgg;  // misalign the first per-op section
    SectionDesc desc = section_at(mutated, 1);
    desc.offset += 4;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_section_misaligned", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // section range escaping the file
    SectionDesc desc = section_at(mutated, 1);
    desc.bytes = ~std::uint64_t{0} / 2;
    std::memcpy(mutated.data() + sizeof(ArtifactHeader) + sizeof(SectionDesc),
                &desc, sizeof(desc));
    write_seed(dir, "artifact_section_oob", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // first op record: unknown kind
    const SectionDesc program = find_kind(mutated, SectionKind::kProgram);
    OpRecord record;
    std::memcpy(&record, mutated.data() + program.offset, sizeof(record));
    record.kind = 0xAB;
    std::memcpy(mutated.data() + program.offset, &record, sizeof(record));
    write_seed(dir, "artifact_bad_op_kind", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // plan sign outside {-1, +1}
    const SectionDesc sign = find_kind(mutated, SectionKind::kPlanSign);
    mutated[sign.offset] = 5;
    write_seed(dir, "artifact_bad_sign", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // shift beyond the exponent window
    const SectionDesc shift = find_kind(mutated, SectionKind::kPlanShift);
    mutated[shift.offset] = 60;
    write_seed(dir, "artifact_bad_shift", resealed(mutated));
  }
  {
    Bytes mutated = vgg;  // non-monotone filter prefix
    const SectionDesc begin = find_kind(mutated, SectionKind::kPlanFilterBegin);
    std::int64_t hostile = -1;
    std::memcpy(mutated.data() + begin.offset + 8, &hostile, sizeof(hostile));
    write_seed(dir, "artifact_bad_filter_begin", resealed(mutated));
  }

  write_seed(dir, "empty", {});
  write_seed(dir, "random_512", pseudo_random(512, 0xA97FAC7U));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 1;
  }
  const fs::path root(argv[1]);
  const fs::path model_io = root / "model_io";
  const fs::path shift_plan = root / "shift_plan";
  const fs::path artifact = root / "artifact";
  fs::create_directories(model_io);
  fs::create_directories(shift_plan);
  fs::create_directories(artifact);
  std::printf("%s:\n", model_io.string().c_str());
  emit_model_io(model_io);
  std::printf("%s:\n", shift_plan.string().c_str());
  emit_shift_plan(shift_plan);
  std::printf("%s:\n", artifact.string().c_str());
  emit_artifact(artifact);
  return 0;
}
