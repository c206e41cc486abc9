#include "src/dmi/model_artifact.h"

#include <cstring>
#include <filesystem>
#include <utility>

#include "src/gui/application.h"
#include "src/support/binio.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"
#include "src/topology/transform.h"

namespace dmi {
namespace {

// Section ids (values are part of the on-disk format — append, never renumber).
enum SectionId : uint32_t {
  kSectionGraph = 1,      // the ripped graph: node table, then successor lists
  kSectionStats = 2,      // the rip counters
  kSectionOptions = 3,    // compile options (override the runtime ones)
  kSectionChecksums = 4,  // per-subtree structural checksum table
};
// Every section id up to this one is required.
constexpr uint32_t kLastRequiredSection = kSectionChecksums;

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionGraph:
      return "graph";
    case kSectionStats:
      return "stats";
    case kSectionOptions:
      return "options";
    case kSectionChecksums:
      return "checksums";
  }
  return nullptr;
}

uint64_t PayloadChecksum(const char* data, size_t n) {
  // The UiaStateChecksum machinery (DESIGN.md §10) in its bulk form: FNV-1a
  // over 8-byte words. Word loads are native-endian, which is exactly the
  // artifact's compatibility contract — the endianness tag is checked before
  // the checksum is ever computed.
  gsim::StateHash hash;
  hash.MixBytes(data, n);
  return hash.digest();
}

support::ErrorDetail ArtifactDetail(const std::string& path, std::string expected) {
  support::ErrorDetail d;
  d.control_id = path;
  d.required_pattern = std::move(expected);
  return d;
}

// ----- writer ----------------------------------------------------------------

void PutU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void PutU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutI32(std::string& out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }

void PutF64(std::string& out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutStr(std::string& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

void PutIntVec(std::string& out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (int x : v) {
    PutI32(out, x);
  }
}

// Appends one framed section: id, item count, body length, body.
void PutSection(std::string& payload, uint32_t id, uint64_t items, const std::string& body) {
  PutU32(payload, id);
  PutU64(payload, items);
  PutU64(payload, static_cast<uint64_t>(body.size()));
  payload.append(body);
}

std::string BuildGraphSection(const topo::NavGraph& graph) {
  std::string body;
  body.reserve(graph.node_count() * 96);
  PutU32(body, static_cast<uint32_t>(graph.node_count()));
  for (size_t i = 0; i < graph.node_count(); ++i) {
    const topo::NodeInfo& info = graph.node(static_cast<int>(i));
    PutStr(body, info.control_id);
    PutStr(body, info.name);
    PutU32(body, static_cast<uint32_t>(info.type));
    PutStr(body, info.description);
    PutStr(body, info.automation_id);
  }
  for (size_t i = 0; i < graph.node_count(); ++i) {
    PutIntVec(body, graph.successors(static_cast<int>(i)));
  }
  return body;
}

std::string BuildStatsSection(const ripper::RipStats& rip) {
  std::string body;
  PutU64(body, rip.clicks);
  PutU64(body, rip.captures);
  PutU64(body, rip.explored);
  PutU64(body, rip.external_recoveries);
  PutU64(body, rip.window_events);
  PutU64(body, rip.contexts);
  PutU64(body, rip.capture_rebuilds);
  PutU64(body, rip.capture_cache_hits);
  PutU64(body, rip.indexed_lookups);
  PutF64(body, rip.simulated_ms);
  return body;
}

std::string BuildOptionsSection(const ModelingOptions& options) {
  std::string body;
  PutU8(body, options.augment_descriptions ? 1 : 0);
  PutU64(body, options.externalize_threshold);
  PutI32(body, options.prune.max_depth);
  PutU64(body, options.prune.enumeration_limit);
  PutU32(body, static_cast<uint32_t>(options.prune.manual_exclude_names.size()));
  for (const std::string& name : options.prune.manual_exclude_names) {
    PutStr(body, name);
  }
  PutU64(body, options.describe.max_description_tokens);
  PutU8(body, options.describe.include_descriptions ? 1 : 0);
  return body;
}

// The per-subtree structural checksum table the delta ripper diffs a live
// app against. Entries are written in the table's canonical (sorted-
// by-key) order so identical tables serialize byte-identically.
std::string BuildChecksumsSection(const ripper::ChecksumTable& table) {
  std::string body;
  body.reserve(table.size() * 48 + 8);
  PutU32(body, static_cast<uint32_t>(table.size()));
  for (const ripper::SubtreeChecksum& entry : table) {
    PutStr(body, entry.key);
    PutU64(body, entry.checksum);
  }
  return body;
}

// ----- reader ----------------------------------------------------------------

// Bounds-checked cursor over a byte span. Every overrun is a typed
// "truncated artifact" error carrying the offending path — a short file can
// never parse as a shorter-but-valid model.
class Reader {
 public:
  Reader(const char* data, size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  size_t remaining() const { return size_ - pos_; }
  size_t pos() const { return pos_; }
  const char* cursor() const { return data_ + pos_; }

  support::Status Skip(size_t n) {
    if (remaining() < n) {
      return Truncated(n);
    }
    pos_ += n;
    return support::Status::Ok();
  }

  support::Status ReadU8(uint8_t* out) {
    if (remaining() < 1) {
      return Truncated(1);
    }
    *out = static_cast<uint8_t>(data_[pos_++]);
    return support::Status::Ok();
  }

  support::Status ReadU32(uint32_t* out) {
    if (remaining() < sizeof(*out)) {
      return Truncated(sizeof(*out));
    }
    std::memcpy(out, data_ + pos_, sizeof(*out));
    pos_ += sizeof(*out);
    return support::Status::Ok();
  }

  support::Status ReadU64(uint64_t* out) {
    if (remaining() < sizeof(*out)) {
      return Truncated(sizeof(*out));
    }
    std::memcpy(out, data_ + pos_, sizeof(*out));
    pos_ += sizeof(*out);
    return support::Status::Ok();
  }

  support::Status ReadI32(int32_t* out) {
    uint32_t raw = 0;
    support::Status st = ReadU32(&raw);
    *out = static_cast<int32_t>(raw);
    return st;
  }

  support::Status ReadSize(size_t* out) {
    uint64_t raw = 0;
    support::Status st = ReadU64(&raw);
    *out = static_cast<size_t>(raw);
    return st;
  }

  support::Status ReadF64(double* out) {
    uint64_t bits = 0;
    support::Status st = ReadU64(&bits);
    if (st.ok()) {
      std::memcpy(out, &bits, sizeof(*out));
    }
    return st;
  }

  support::Status ReadStr(std::string* out) {
    uint32_t len = 0;
    if (support::Status st = ReadU32(&len); !st.ok()) {
      return st;
    }
    if (remaining() < len) {
      return Truncated(len);
    }
    out->assign(data_ + pos_, len);
    pos_ += len;
    return support::Status::Ok();
  }

  support::Status ReadIntVec(std::vector<int>* out) {
    static_assert(sizeof(int) == 4, "artifact int vectors are packed i32");
    uint32_t count = 0;
    if (support::Status st = ReadU32(&count); !st.ok()) {
      return st;
    }
    // Each element costs 4 bytes; reject counts the span cannot hold before
    // resizing (a corrupt count must not become a giant allocation).
    if (remaining() < static_cast<size_t>(count) * 4) {
      return Truncated(static_cast<size_t>(count) * 4);
    }
    out->resize(count);
    if (count > 0) {
      std::memcpy(out->data(), data_ + pos_, static_cast<size_t>(count) * 4);
      pos_ += static_cast<size_t>(count) * 4;
    }
    return support::Status::Ok();
  }

  support::Status Truncated(size_t wanted) const {
    return support::InvalidArgumentError(
               "truncated artifact '" + path_ + "': need " + std::to_string(wanted) +
               " bytes at offset " + std::to_string(pos_) + ", have " +
               std::to_string(remaining()))
        .WithDetail(ArtifactDetail(path_, support::Format("%zu bytes", wanted)));
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  const std::string& path_;
};

struct Header {
  ArtifactMeta meta;
  uint64_t payload_len = 0;
  uint64_t checksum = 0;
  size_t payload_offset = 0;  // into the file bytes
};

// Validates magic/endianness/version and reads the meta + payload framing.
// Shared by the loader and the inspector so both reject corruption the same
// way.
support::Status ParseHeader(const std::string& bytes, const std::string& path, Header* out) {
  Reader reader(bytes.data(), bytes.size(), path);
  if (bytes.size() < sizeof(kArtifactMagic)) {
    return reader.Truncated(sizeof(kArtifactMagic));
  }
  if (std::memcmp(bytes.data(), kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
    return support::InvalidArgumentError("not a DMI model artifact: '" + path +
                                         "' (bad magic)")
        .WithDetail(ArtifactDetail(path, "magic=DMIMODL"));
  }
  (void)reader.Skip(sizeof(kArtifactMagic));
  uint32_t endian_tag = 0;
  if (support::Status st = reader.ReadU32(&endian_tag); !st.ok()) {
    return st;
  }
  if (endian_tag != kArtifactEndianTag) {
    // The byte-swapped tag means a valid artifact from a foreign-endian
    // producer; anything else is corruption — but both are unreadable here,
    // and the distinct code lets tooling tell the user to re-emit rather
    // than suspect disk rot.
    return support::FailedPreconditionError(
               support::Format("artifact '%s' written with incompatible endianness "
                               "(tag 0x%08x, want 0x%08x)",
                               path.c_str(), endian_tag, kArtifactEndianTag))
        .WithDetail(ArtifactDetail(path, "endian=0x01020304"));
  }
  uint32_t version = 0;
  if (support::Status st = reader.ReadU32(&version); !st.ok()) {
    return st;
  }
  if (version != kArtifactFormatVersion) {
    return support::UnimplementedError(
               support::Format("artifact '%s' has unsupported format version %u "
                               "(reader supports %u)",
                               path.c_str(), version, kArtifactFormatVersion))
        .WithDetail(ArtifactDetail(path, support::Format("version=%u", kArtifactFormatVersion)));
  }
  if (support::Status st = reader.ReadStr(&out->meta.app_kind); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadStr(&out->meta.app_version); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadU64(&out->payload_len); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadU64(&out->checksum); !st.ok()) {
    return st;
  }
  out->payload_offset = reader.pos();
  const uint64_t available = bytes.size() - out->payload_offset;
  if (available < out->payload_len) {
    return support::InvalidArgumentError(
               support::Format("truncated artifact '%s': payload has %llu of %llu bytes",
                               path.c_str(), static_cast<unsigned long long>(available),
                               static_cast<unsigned long long>(out->payload_len)))
        .WithDetail(
            ArtifactDetail(path, support::Format("payload=%llu bytes",
                                                 static_cast<unsigned long long>(out->payload_len))));
  }
  if (available > out->payload_len) {
    return support::InvalidArgumentError(
               support::Format("artifact '%s' has %llu trailing bytes after the payload",
                               path.c_str(),
                               static_cast<unsigned long long>(available - out->payload_len)))
        .WithDetail(ArtifactDetail(path, "no trailing bytes"));
  }
  return support::Status::Ok();
}

support::Status VerifyChecksum(const std::string& bytes, const Header& header,
                               const std::string& path) {
  const uint64_t computed =
      PayloadChecksum(bytes.data() + header.payload_offset, header.payload_len);
  if (computed != header.checksum) {
    return support::InternalError(
               support::Format("artifact '%s' checksum mismatch: stored %016llx, "
                               "computed %016llx",
                               path.c_str(), static_cast<unsigned long long>(header.checksum),
                               static_cast<unsigned long long>(computed)))
        .WithDetail(ArtifactDetail(
            path, support::Format("fnv1a=%016llx",
                                  static_cast<unsigned long long>(header.checksum))));
  }
  return support::Status::Ok();
}

support::Status InvalidGraph(const std::string& path, const std::string& what) {
  return support::InvalidArgumentError("artifact '" + path + "': " + what)
      .WithDetail(ArtifactDetail(path, "a valid ripped graph"));
}

// Rebuilds the ripped graph through AddNode/AddEdge and validates its shape:
// unique, non-empty ids with the virtual root first, in-range edge targets
// and control types, no repeated edge or self-loop.
support::Status ParseGraphSection(Reader& reader, const std::string& path,
                                  topo::NavGraph* out) {
  uint32_t count = 0;
  if (support::Status st = reader.ReadU32(&count); !st.ok()) {
    return st;
  }
  if (count == 0) {
    return InvalidGraph(path, "graph has no root node");
  }
  topo::NavGraph graph;
  for (uint32_t i = 0; i < count; ++i) {
    topo::NodeInfo info;
    uint32_t type = 0;
    if (support::Status st = reader.ReadStr(&info.control_id); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadStr(&info.name); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadU32(&type); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadStr(&info.description); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadStr(&info.automation_id); !st.ok()) {
      return st;
    }
    if (type >= static_cast<uint32_t>(uia::kNumControlTypes)) {
      return InvalidGraph(path, support::Format("node %u has unknown control type %u", i, type));
    }
    info.type = static_cast<uia::ControlType>(type);
    if (info.control_id.empty()) {
      return InvalidGraph(path, support::Format("node %u has an empty control id", i));
    }
    if (i == 0) {
      if (info.control_id != graph.node(topo::NavGraph::kRootIndex).control_id) {
        return InvalidGraph(path, "node 0 is not the virtual root");
      }
      graph.mutable_node(topo::NavGraph::kRootIndex) = std::move(info);
    } else if (graph.AddNode(info) != static_cast<int>(i)) {
      return InvalidGraph(path, support::Format("node %u repeats control id '%s'", i,
                                                info.control_id.c_str()));
    }
  }
  size_t edges = 0;
  std::vector<int> row;
  for (uint32_t from = 0; from < count; ++from) {
    if (support::Status st = reader.ReadIntVec(&row); !st.ok()) {
      return st;
    }
    for (int to : row) {
      if (to < 0 || static_cast<uint32_t>(to) >= count) {
        return InvalidGraph(path, support::Format("node %u has edge target %d out of range", from,
                                                  to));
      }
      graph.AddEdge(static_cast<int>(from), to);
    }
    edges += row.size();
  }
  if (graph.edge_count() != edges) {
    return InvalidGraph(path, "graph has a repeated edge or a self-loop");
  }
  *out = std::move(graph);
  return support::Status::Ok();
}

support::Status ParseStatsSection(Reader& reader, ripper::RipStats* rip) {
  (void)reader.ReadU64(&rip->clicks);
  (void)reader.ReadU64(&rip->captures);
  (void)reader.ReadU64(&rip->explored);
  (void)reader.ReadU64(&rip->external_recoveries);
  (void)reader.ReadU64(&rip->window_events);
  (void)reader.ReadU64(&rip->contexts);
  (void)reader.ReadU64(&rip->capture_rebuilds);
  (void)reader.ReadU64(&rip->capture_cache_hits);
  (void)reader.ReadU64(&rip->indexed_lookups);
  return reader.ReadF64(&rip->simulated_ms);
}

support::Status ParseOptionsSection(Reader& reader, ModelingOptions* options) {
  uint8_t augment = 0;
  if (support::Status st = reader.ReadU8(&augment); !st.ok()) {
    return st;
  }
  options->augment_descriptions = augment != 0;
  if (support::Status st = reader.ReadU64(&options->externalize_threshold); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadI32(&options->prune.max_depth); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadSize(&options->prune.enumeration_limit); !st.ok()) {
    return st;
  }
  uint32_t exclude_count = 0;
  if (support::Status st = reader.ReadU32(&exclude_count); !st.ok()) {
    return st;
  }
  options->prune.manual_exclude_names.clear();
  for (uint32_t i = 0; i < exclude_count; ++i) {
    std::string name;
    if (support::Status st = reader.ReadStr(&name); !st.ok()) {
      return st;
    }
    options->prune.manual_exclude_names.insert(std::move(name));
  }
  if (support::Status st = reader.ReadSize(&options->describe.max_description_tokens);
      !st.ok()) {
    return st;
  }
  uint8_t include_desc = 0;
  if (support::Status st = reader.ReadU8(&include_desc); !st.ok()) {
    return st;
  }
  options->describe.include_descriptions = include_desc != 0;
  return support::Status::Ok();
}

support::Status ParseChecksumsSection(Reader& reader, ripper::ChecksumTable* table) {
  uint32_t count = 0;
  if (support::Status st = reader.ReadU32(&count); !st.ok()) {
    return st;
  }
  // An entry costs at least 12 bytes (an empty key and its digest); reject
  // counts the span cannot hold before reserving (a corrupt count must not
  // become a giant allocation).
  if (reader.remaining() < static_cast<size_t>(count) * 12) {
    return reader.Truncated(static_cast<size_t>(count) * 12);
  }
  table->clear();
  table->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ripper::SubtreeChecksum entry;
    if (support::Status st = reader.ReadStr(&entry.key); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadU64(&entry.checksum); !st.ok()) {
      return st;
    }
    table->push_back(std::move(entry));
  }
  return support::Status::Ok();
}

}  // namespace

support::Status SaveModelArtifact(const CompiledModel& model, const ArtifactMeta& meta,
                                  const std::string& path) {
  support::TraceSpan span("model.artifact_save", "model");
  std::string payload;
  payload.reserve(model.ripped().node_count() * 128 + 4096);
  PutSection(payload, kSectionGraph, model.ripped().node_count(),
             BuildGraphSection(model.ripped()));
  PutSection(payload, kSectionStats, 1, BuildStatsSection(model.stats().rip));
  PutSection(payload, kSectionOptions, 1, BuildOptionsSection(model.options()));
  // Written even when empty (a model compiled without a table): a delta rip
  // against the loaded model then falls back to a full rip.
  PutSection(payload, kSectionChecksums, model.subtree_checksums().size(),
             BuildChecksumsSection(model.subtree_checksums()));

  std::string bytes;
  bytes.reserve(payload.size() + 64 + meta.app_kind.size() + meta.app_version.size());
  bytes.append(kArtifactMagic, sizeof(kArtifactMagic));
  PutU32(bytes, kArtifactEndianTag);
  PutU32(bytes, kArtifactFormatVersion);
  PutStr(bytes, meta.app_kind);
  PutStr(bytes, meta.app_version);
  PutU64(bytes, static_cast<uint64_t>(payload.size()));
  PutU64(bytes, PayloadChecksum(payload.data(), payload.size()));
  bytes.append(payload);

  support::CountMetric("model.artifact_saves");
  support::CountMetric("model.artifact_bytes", bytes.size());
  span.AddArg("bytes", static_cast<int64_t>(bytes.size()));
  // A model store is usually a directory that doesn't exist yet (fresh
  // `--model-dir`, `--out cache/...`); create it so save means save. A
  // failure here surfaces as the typed WriteFileBytes error below.
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ec);
  }
  return support::WriteFileBytes(path, bytes);
}

support::Result<LoadedModelArtifact> ParseModelArtifact(const std::string& bytes,
                                                        const std::string& name,
                                                        const ModelingOptions& runtime_options,
                                                        const ArtifactMeta* expect) {
  Header header;
  if (support::Status st = ParseHeader(bytes, name, &header); !st.ok()) {
    return st;
  }
  if (expect != nullptr && (header.meta.app_kind != expect->app_kind ||
                            header.meta.app_version != expect->app_version)) {
    return support::FailedPreconditionError(
               "artifact '" + name + "' is for (" + header.meta.app_kind + ", " +
               header.meta.app_version + "), expected (" + expect->app_kind + ", " +
               expect->app_version + ")")
        .WithDetail(ArtifactDetail(name, expect->app_kind + "-" + expect->app_version));
  }
  // The checksum gates all section parsing, so flipped bytes report as
  // corruption, never as a structural error.
  if (support::Status st = VerifyChecksum(bytes, header, name); !st.ok()) {
    return st;
  }

  topo::NavGraph graph;
  ripper::RipStats rip;
  ModelingOptions options = runtime_options;
  ripper::ChecksumTable checksums;
  bool have[kLastRequiredSection + 1] = {};
  Reader payload(bytes.data() + header.payload_offset, header.payload_len, name);
  while (payload.remaining() > 0) {
    uint32_t id = 0;
    uint64_t items = 0;
    size_t len = 0;
    if (support::Status st = payload.ReadU32(&id); !st.ok()) {
      return st;
    }
    if (support::Status st = payload.ReadU64(&items); !st.ok()) {
      return st;
    }
    if (support::Status st = payload.ReadSize(&len); !st.ok()) {
      return st;
    }
    if (payload.remaining() < len) {
      return payload.Truncated(len);
    }
    Reader body(payload.cursor(), len, name);
    (void)payload.Skip(len);
    if (id < 1 || id > kLastRequiredSection) {
      // Unknown section from an additive producer: skip (forward compat
      // within a format version; the checksum already vouched for the
      // bytes).
      continue;
    }
    if (have[id]) {
      return support::InvalidArgumentError(support::Format(
          "artifact '%s' repeats the '%s' section", name.c_str(), SectionName(id)));
    }
    have[id] = true;
    support::Status st;
    switch (id) {
      case kSectionGraph:
        st = ParseGraphSection(body, name, &graph);
        break;
      case kSectionStats:
        st = ParseStatsSection(body, &rip);
        break;
      case kSectionOptions:
        st = ParseOptionsSection(body, &options);
        break;
      case kSectionChecksums:
        st = ParseChecksumsSection(body, &checksums);
        break;
    }
    if (!st.ok()) {
      return st;
    }
    if (body.remaining() != 0) {
      return support::InvalidArgumentError(
          support::Format("artifact '%s': section %s body length mismatch (declared %zu, "
                          "parsed %zu)",
                          name.c_str(), SectionName(id), len, len - body.remaining()));
    }
  }
  for (uint32_t id = 1; id <= kLastRequiredSection; ++id) {
    if (!have[id]) {
      return support::InvalidArgumentError("artifact '" + name + "' is missing the '" +
                                           SectionName(id) + "' section")
          .WithDetail(ArtifactDetail(name, std::string("section=") + SectionName(id)));
    }
  }

  // The compile recurses as deep as the longest root path and materializes
  // the whole forest (whose size the stored threshold drives), so both are
  // bounded before untrusted bytes are compiled.
  const topo::ForestShape shape = topo::MeasureForest(graph, options.externalize_threshold);
  if (shape.longest_root_path > kMaxArtifactGraphDepth) {
    return InvalidGraph(name, support::Format("graph has a %d-edge root path; at most %d compile",
                                              shape.longest_root_path, kMaxArtifactGraphDepth));
  }
  if (shape.nodes > kMaxArtifactForestNodes) {
    return InvalidGraph(name, support::Format("graph would compile to a %llu-node forest; at "
                                              "most %llu compile",
                                              static_cast<unsigned long long>(shape.nodes),
                                              static_cast<unsigned long long>(
                                                  kMaxArtifactForestNodes)));
  }

  LoadedModelArtifact loaded;
  loaded.meta = header.meta;
  loaded.model = CompiledModel::Compile(std::move(graph), options, &rip, &checksums);
  return loaded;
}

support::Result<LoadedModelArtifact> LoadModelArtifact(const std::string& path,
                                                       const ModelingOptions& runtime_options,
                                                       const ArtifactMeta* expect) {
  support::TraceSpan span("model.artifact_load", "model");
  const int64_t load_start_us = support::TraceNowUs();
  support::Result<std::string> bytes = support::ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  support::Result<LoadedModelArtifact> loaded =
      ParseModelArtifact(*bytes, path, runtime_options, expect);
  if (loaded.ok()) {
    support::CountMetric("model.artifact_loads");
    support::ObserveMetric("model.artifact_load_ms",
                           static_cast<double>(support::TraceNowUs() - load_start_us) / 1000.0);
  }
  span.AddArg("bytes", static_cast<int64_t>(bytes->size()));
  return loaded;
}

support::Result<ArtifactInfo> InspectModelArtifact(const std::string& path) {
  support::Result<std::string> bytes = support::ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Header header;
  if (support::Status st = ParseHeader(*bytes, path, &header); !st.ok()) {
    return st;
  }
  ArtifactInfo info;
  info.format_version = kArtifactFormatVersion;
  info.meta = header.meta;
  info.payload_bytes = header.payload_len;
  info.stored_checksum = header.checksum;
  info.checksum_ok = VerifyChecksum(*bytes, header, path).ok();
  Reader reader(bytes->data() + header.payload_offset, header.payload_len, path);
  while (reader.remaining() > 0) {
    uint32_t id = 0;
    ArtifactSectionInfo section;
    if (support::Status st = reader.ReadU32(&id); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadU64(&section.items); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.ReadU64(&section.bytes); !st.ok()) {
      return st;
    }
    if (support::Status st = reader.Skip(section.bytes); !st.ok()) {
      return st;
    }
    section.name = SectionName(id) ? SectionName(id)
                                   : support::Format("unknown(%u)", id);
    info.sections.push_back(std::move(section));
  }
  return info;
}

}  // namespace dmi
