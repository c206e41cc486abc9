// Binary model artifacts: compile once, checksum-verified cold-load
// everywhere (DESIGN.md §14).
//
// A versioned, checksummed, densely packed serialization of the complete
// dmi::CompiledModel — the decycled DAG, the forest with both precomputed
// indexes, the topology catalog with its memoized serializations and token
// counts, and the shared static prompt segment — so a cold load materializes
// a ready-to-attach model by read + index fixup, re-running none of the
// describe/tokenize pipeline.
//
// On-disk layout (all integers native-endian; the header's endianness tag
// rejects foreign-endian artifacts before anything else is interpreted):
//
//   magic[8]            "DMIMODL\0"
//   endian_tag  u32     0x01020304 as written by the producer
//   version     u32     format version; the reader accepts exactly
//                       kArtifactFormatVersion (a store holding any other
//                       version recompiles and overwrites it, see
//                       ModelRegistry::Acquire)
//   app_kind    str     producer-declared application kind  ─┐ the registry
//   app_version str     producer-declared application build  ┘ key
//   payload_len u64
//   checksum    u64     FNV-1a (word-bulk StateHash::MixBytes) over payload
//   payload             section stream
//
// Each section: id u32, item_count u64, byte_len u64, body. Unknown section
// ids are skipped (a same-version reader tolerates additive producers); a
// missing required section (all seven, checksums included) is a typed error.
// `str` is u32 length + bytes.
//
// Every failure mode is a distinct typed support::Status (never a crash, and
// never a silently wrong model — the checksum gates all section parsing):
//   missing file        kNotFound
//   short/truncated     kInvalidArgument  ("truncated artifact ...")
//   bad magic           kInvalidArgument  ("not a DMI model artifact ...")
//   foreign endianness  kFailedPrecondition
//   unsupported version kUnimplemented
//   checksum mismatch   kInternal
// with an ErrorDetail payload naming the path (control_id) and what was
// expected (required_pattern).
#ifndef SRC_DMI_MODEL_ARTIFACT_H_
#define SRC_DMI_MODEL_ARTIFACT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dmi/compiled_model.h"
#include "src/support/status.h"

namespace dmi {

inline constexpr char kArtifactMagic[8] = {'D', 'M', 'I', 'M', 'O', 'D', 'L', '\0'};
inline constexpr uint32_t kArtifactEndianTag = 0x01020304u;
inline constexpr uint32_t kArtifactFormatVersion = 2;

// Conventional artifact filename extension ("<kind>-<version>.dmim").
inline constexpr char kArtifactExtension[] = ".dmim";

// Producer-declared identity of the modeled application; the registry keys
// loaded models by it and the loader lets callers assert it.
struct ArtifactMeta {
  std::string app_kind;     // e.g. "WordSim"
  std::string app_version;  // application build version, e.g. "1"
};

// Serializes the complete compiled model (plus identity meta) to `path`.
// The model's lazy caches are forced first (compile-side cost), so the
// artifact always carries every memoized serialization and token count.
support::Status SaveModelArtifact(const CompiledModel& model, const ArtifactMeta& meta,
                                  const std::string& path);

struct LoadedModelArtifact {
  std::shared_ptr<const CompiledModel> model;
  ArtifactMeta meta;
};

// Checksum-verified cold load. Compile-time parameters (threshold, prune,
// describe, augment flag) come from the artifact; runtime parameters
// (ripper config, contexts, visit/interaction configs) are adopted from
// `runtime_options`, mirroring how sessions default their configs from the
// model. `expect` (optional) rejects an artifact whose recorded identity
// differs from the requested (app kind, app version) — the registry's
// wrong-model guard.
support::Result<LoadedModelArtifact> LoadModelArtifact(const std::string& path,
                                                       const ModelingOptions& runtime_options,
                                                       const ArtifactMeta* expect = nullptr);

// Header + section table of an artifact, for `dmi_modeler --inspect`.
struct ArtifactSectionInfo {
  std::string name;  // "dag", "forest", ... or "unknown(<id>)"
  uint64_t items = 0;
  uint64_t bytes = 0;
};

struct ArtifactInfo {
  uint32_t format_version = 0;
  ArtifactMeta meta;
  uint64_t payload_bytes = 0;
  uint64_t stored_checksum = 0;
  bool checksum_ok = false;
  std::vector<ArtifactSectionInfo> sections;
};

// Reads the header and walks the section table without materializing a
// model; verifies (and reports) the payload checksum. Fails on the same
// header-level corruption the loader rejects.
support::Result<ArtifactInfo> InspectModelArtifact(const std::string& path);

}  // namespace dmi

#endif  // SRC_DMI_MODEL_ARTIFACT_H_
