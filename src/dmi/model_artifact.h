// Binary model artifacts: store the rip, compile on load (DESIGN.md §14).
//
// The ripped UI Navigation Graph is the one expensive product of the
// offline phase: a rip costs about a second of CPU per app, compiling the
// graph a few milliseconds, and the forest, the catalog and the static
// prompt are pure functions of the graph and the compile options. So an
// artifact stores the graph, and a load parses it, validates it and returns
// CompiledModel::Compile of it. A loaded model is built exactly like a
// ripped one and keeps the graph, so it is also a delta-rip baseline
// (DESIGN.md §15).
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
// Each section: id u32, item_count u64, byte_len u64, body. The four
// sections are required, once each:
//   1 graph      node count, then per node control id, name, type u32,
//                description, automation id (node 0 is the virtual root),
//                then per node its successor list (u32 count + i32s)
//   2 stats      the rip counters (ripper::RipStats)
//   3 options    the compile options, which override the runtime ones
//   4 checksums  the per-subtree structural checksum table
// Unknown section ids are skipped (a same-version reader tolerates additive
// producers). `str` is u32 length + bytes.
//
// Every failure mode is a distinct typed support::Status (never a crash, and
// never a silently wrong model — the checksum gates all section parsing):
//   missing file        kNotFound
//   short/truncated     kInvalidArgument  ("truncated artifact ...")
//   bad magic           kInvalidArgument  ("not a DMI model artifact ...")
//   invalid graph       kInvalidArgument  (empty or repeated id, edge target
//                                          or control type out of range,
//                                          root path or forest over its
//                                          bound)
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
inline constexpr uint32_t kArtifactFormatVersion = 3;

// Bounds on what a loaded graph may compile to (topo::MeasureForest), so an
// untrusted artifact is rejected rather than allowed to overflow the stack
// or exhaust memory. The compile recurses as deep as the longest root path
// (the three ripped apps measure 14 edges) and materializes the forest,
// whose size the stored externalization threshold drives (the apps' forests
// hold 3,560–4,200 nodes).
inline constexpr int kMaxArtifactGraphDepth = 256;
inline constexpr uint64_t kMaxArtifactForestNodes = uint64_t{1} << 20;

// Conventional artifact filename extension ("<kind>-<version>.dmim").
inline constexpr char kArtifactExtension[] = ".dmim";

// Producer-declared identity of the modeled application; the registry keys
// loaded models by it and the loader lets callers assert it.
struct ArtifactMeta {
  std::string app_kind;     // e.g. "WordSim"
  std::string app_version;  // application build version, e.g. "1"
};

// Writes the model's ripped graph, rip counters, compile options and
// checksum table (plus identity meta) to `path`, creating missing parent
// directories.
support::Status SaveModelArtifact(const CompiledModel& model, const ArtifactMeta& meta,
                                  const std::string& path);

struct LoadedModelArtifact {
  std::shared_ptr<const CompiledModel> model;
  ArtifactMeta meta;
};

// Checksum-verified load of an artifact held in memory: parse, validate the
// graph, then CompiledModel::Compile it. Compile-time parameters (threshold,
// prune, describe, augment flag) come from the artifact; runtime parameters
// (ripper config, contexts, interaction config) are adopted from
// `runtime_options`, mirroring how sessions default their configs from the
// model. `name` labels errors (the path, for a file). `expect` (optional)
// rejects an artifact whose recorded identity differs from the requested
// (app kind, app version) — the registry's wrong-model guard.
support::Result<LoadedModelArtifact> ParseModelArtifact(const std::string& bytes,
                                                        const std::string& name,
                                                        const ModelingOptions& runtime_options,
                                                        const ArtifactMeta* expect = nullptr);

// Reads the file at `path` and parses it (ParseModelArtifact).
support::Result<LoadedModelArtifact> LoadModelArtifact(const std::string& path,
                                                       const ModelingOptions& runtime_options,
                                                       const ArtifactMeta* expect = nullptr);

// Header + section table of an artifact, for `dmi_modeler --inspect`.
struct ArtifactSectionInfo {
  std::string name;  // "graph", "stats", ... or "unknown(<id>)"
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
