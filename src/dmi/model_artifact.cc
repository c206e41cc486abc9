#include "src/dmi/model_artifact.h"

#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/gui/application.h"
#include "src/support/binio.h"
#include "src/support/metrics.h"
#include "src/support/strings.h"
#include "src/support/trace.h"

namespace dmi {
namespace {

// Section ids (values are part of the on-disk format — append, never renumber).
enum SectionId : uint32_t {
  kSectionDag = 1,
  kSectionForest = 2,
  kSectionCatalog = 3,
  kSectionPrompt = 4,
  kSectionStats = 5,
  kSectionOptions = 6,
  kSectionChecksums = 7,  // per-subtree structural checksum table
};
// Every section id up to this one is required.
constexpr uint32_t kLastRequiredSection = kSectionChecksums;

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSectionDag:
      return "dag";
    case kSectionForest:
      return "forest";
    case kSectionCatalog:
      return "catalog";
    case kSectionPrompt:
      return "prompt";
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

void PutTree(std::string& out, const topo::Tree& tree) {
  PutU32(out, static_cast<uint32_t>(tree.nodes.size()));
  for (const topo::TreeNode& node : tree.nodes) {
    PutI32(out, node.graph_index);
    PutI32(out, node.id);
    PutI32(out, node.parent);
    PutU8(out, node.is_reference ? 1 : 0);
    PutI32(out, node.ref_subtree);
    PutIntVec(out, node.children);
  }
}

// Appends one framed section: id, item count, body length, body.
void PutSection(std::string& payload, uint32_t id, uint64_t items, const std::string& body) {
  PutU32(payload, id);
  PutU64(payload, items);
  PutU64(payload, static_cast<uint64_t>(body.size()));
  payload.append(body);
}

std::string BuildDagSection(const topo::NavGraph& dag) {
  std::string body;
  body.reserve(dag.node_count() * 96);
  PutU32(body, static_cast<uint32_t>(dag.node_count()));
  for (size_t i = 0; i < dag.node_count(); ++i) {
    const topo::NodeInfo& info = dag.node(static_cast<int>(i));
    PutStr(body, info.control_id);
    PutStr(body, info.name);
    PutU32(body, static_cast<uint32_t>(info.type));
    PutStr(body, info.description);
    PutStr(body, info.automation_id);
  }
  for (size_t i = 0; i < dag.node_count(); ++i) {
    PutIntVec(body, dag.successors(static_cast<int>(i)));
  }
  return body;
}

std::string BuildForestSection(const topo::Forest& forest) {
  std::string body;
  body.reserve(forest.total_nodes() * 40);
  PutTree(body, forest.main());
  PutU32(body, static_cast<uint32_t>(forest.shared().size()));
  for (const topo::Tree& tree : forest.shared()) {
    PutTree(body, tree);
  }
  const std::vector<topo::ForestLocation>& locs = forest.LocationTable();
  PutU32(body, static_cast<uint32_t>(locs.size()));
  for (const topo::ForestLocation& loc : locs) {
    PutI32(body, loc.tree);
    PutI32(body, loc.node);
  }
  const std::vector<topo::ReferenceEntry>& refs = forest.AllReferences();
  PutU32(body, static_cast<uint32_t>(refs.size()));
  for (const topo::ReferenceEntry& ref : refs) {
    PutI32(body, ref.ref_id);
    PutI32(body, ref.subtree);
  }
  const std::vector<std::vector<int>>& by_subtree = forest.RefsBySubtree();
  PutU32(body, static_cast<uint32_t>(by_subtree.size()));
  for (const std::vector<int>& v : by_subtree) {
    PutIntVec(body, v);
  }
  PutI32(body, forest.max_id());
  return body;
}

std::string BuildCatalogSection(const desc::CatalogSnapshot& snap) {
  std::string body;
  body.reserve(snap.core_text.size() + snap.core_ids.size() * 4 + 256);
  PutIntVec(body, snap.core_ids);
  PutU64(body, snap.core_stats.kept);
  PutU64(body, snap.core_stats.elided);
  PutU64(body, snap.core_stats.elided_enumerations);
  PutStr(body, snap.core_text);
  PutU64(body, snap.core_tokens);
  PutU64(body, snap.full_tokens);
  PutU32(body, static_cast<uint32_t>(snap.subtree_texts.size()));
  for (const std::string& text : snap.subtree_texts) {
    PutStr(body, text);
  }
  return body;
}

std::string BuildPromptSection(const CompiledModel& model) {
  std::string body;
  body.reserve(model.static_prompt().size() + 32);
  PutU64(body, model.usage_hint_tokens());
  PutStr(body, model.static_prompt());
  PutU64(body, model.static_prompt_tokens());
  return body;
}

std::string BuildStatsSection(const ModelingStats& s) {
  std::string body;
  PutU64(body, s.raw.nodes);
  PutU64(body, s.raw.edges);
  PutU64(body, s.raw.merge_nodes);
  PutU64(body, s.raw.back_edges);
  PutI32(body, s.raw.max_depth);
  PutU64(body, s.back_edges_removed);
  PutU64(body, s.unreachable_dropped);
  PutU64(body, s.forest_nodes);
  PutU64(body, s.shared_subtrees);
  PutU64(body, s.references);
  PutU64(body, s.core_nodes);
  PutU64(body, s.core_tokens);
  PutU64(body, s.full_tokens);
  PutU64(body, s.rip.clicks);
  PutU64(body, s.rip.captures);
  PutU64(body, s.rip.explored);
  PutU64(body, s.rip.external_recoveries);
  PutU64(body, s.rip.window_events);
  PutU64(body, s.rip.contexts);
  PutU64(body, s.rip.capture_rebuilds);
  PutU64(body, s.rip.capture_cache_hits);
  PutU64(body, s.rip.indexed_lookups);
  PutF64(body, s.rip.simulated_ms);
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

  support::Status ReadTree(topo::Tree* out) {
    uint32_t count = 0;
    if (support::Status st = ReadU32(&count); !st.ok()) {
      return st;
    }
    // 17 bytes fixed per node + its (bounds-checked) child vector.
    if (remaining() < static_cast<size_t>(count) * 17) {
      return Truncated(static_cast<size_t>(count) * 17);
    }
    out->nodes.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      topo::TreeNode& node = out->nodes[i];
      uint8_t is_ref = 0;
      if (support::Status st = ReadI32(&node.graph_index); !st.ok()) {
        return st;
      }
      (void)ReadI32(&node.id);
      (void)ReadI32(&node.parent);
      if (support::Status st = ReadU8(&is_ref); !st.ok()) {
        return st;
      }
      node.is_reference = is_ref != 0;
      if (support::Status st = ReadI32(&node.ref_subtree); !st.ok()) {
        return st;
      }
      if (support::Status st = ReadIntVec(&node.children); !st.ok()) {
        return st;
      }
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

support::Status ParseDagSection(Reader& reader, const std::string& path,
                                std::unique_ptr<topo::NavGraph>* out) {
  uint32_t count = 0;
  if (support::Status st = reader.ReadU32(&count); !st.ok()) {
    return st;
  }
  std::vector<topo::NodeInfo> nodes(count);
  // Node-table hot loop: four length-prefixed strings plus a type word per
  // node, parsed from raw cursors with one bounds check per field. This is
  // the single largest cost of a cold load, so it skips the per-call Reader
  // accounting; the consumed span is committed back to the reader at the
  // end (or before surfacing a truncation, so the error offset is right).
  const char* base = reader.cursor();
  const char* p = base;
  const char* end = base + reader.remaining();
  size_t want = 0;
  auto read_str = [&](std::string* dst) {
    if (end - p < 4) {
      want = 4;
      return false;
    }
    uint32_t len = 0;
    std::memcpy(&len, p, 4);
    p += 4;
    if (static_cast<size_t>(end - p) < len) {
      want = len;
      return false;
    }
    dst->assign(p, len);
    p += len;
    return true;
  };
  for (uint32_t i = 0; i < count; ++i) {
    topo::NodeInfo& info = nodes[i];
    uint32_t type = 0;
    bool ok = read_str(&info.control_id) && read_str(&info.name);
    if (ok) {
      if (end - p < 4) {
        want = 4;
        ok = false;
      } else {
        std::memcpy(&type, p, 4);
        p += 4;
      }
    }
    if (ok && type >= static_cast<uint32_t>(uia::kNumControlTypes)) {
      return support::InvalidArgumentError(
          support::Format("artifact '%s': node %u has invalid control type %u", path.c_str(),
                          i, type));
    }
    info.type = static_cast<uia::ControlType>(type);
    ok = ok && read_str(&info.description) && read_str(&info.automation_id);
    if (!ok) {
      (void)reader.Skip(static_cast<size_t>(p - base));
      return reader.Truncated(want);
    }
  }
  (void)reader.Skip(static_cast<size_t>(p - base));
  std::vector<std::vector<int>> adjacency(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (support::Status st = reader.ReadIntVec(&adjacency[i]); !st.ok()) {
      return st;
    }
  }
  support::Result<topo::NavGraph> graph =
      topo::NavGraph::FromParts(std::move(nodes), std::move(adjacency));
  if (!graph.ok()) {
    return graph.status();
  }
  *out = std::make_unique<topo::NavGraph>(std::move(*graph));
  return support::Status::Ok();
}

support::Status ParseForestSection(Reader& reader, topo::ForestParts* parts) {
  if (support::Status st = reader.ReadTree(&parts->main); !st.ok()) {
    return st;
  }
  uint32_t shared_count = 0;
  if (support::Status st = reader.ReadU32(&shared_count); !st.ok()) {
    return st;
  }
  parts->shared.resize(shared_count);
  for (uint32_t s = 0; s < shared_count; ++s) {
    if (support::Status st = reader.ReadTree(&parts->shared[s]); !st.ok()) {
      return st;
    }
  }
  // ForestLocation and ReferenceEntry are pairs of i32 — bulk-copy both
  // tables (same layout the writer emitted field-by-field).
  static_assert(sizeof(topo::ForestLocation) == 8 && sizeof(topo::ReferenceEntry) == 8,
                "artifact tables are packed i32 pairs");
  uint32_t loc_count = 0;
  if (support::Status st = reader.ReadU32(&loc_count); !st.ok()) {
    return st;
  }
  if (reader.remaining() < static_cast<size_t>(loc_count) * 8) {
    return reader.Truncated(static_cast<size_t>(loc_count) * 8);
  }
  parts->loc_by_id.resize(loc_count);
  if (loc_count > 0) {
    std::memcpy(parts->loc_by_id.data(), reader.cursor(), static_cast<size_t>(loc_count) * 8);
    (void)reader.Skip(static_cast<size_t>(loc_count) * 8);
  }
  uint32_t ref_count = 0;
  if (support::Status st = reader.ReadU32(&ref_count); !st.ok()) {
    return st;
  }
  if (reader.remaining() < static_cast<size_t>(ref_count) * 8) {
    return reader.Truncated(static_cast<size_t>(ref_count) * 8);
  }
  parts->all_refs.resize(ref_count);
  if (ref_count > 0) {
    std::memcpy(parts->all_refs.data(), reader.cursor(), static_cast<size_t>(ref_count) * 8);
    (void)reader.Skip(static_cast<size_t>(ref_count) * 8);
  }
  uint32_t by_subtree_count = 0;
  if (support::Status st = reader.ReadU32(&by_subtree_count); !st.ok()) {
    return st;
  }
  if (reader.remaining() < static_cast<size_t>(by_subtree_count) * 4) {
    return reader.Truncated(static_cast<size_t>(by_subtree_count) * 4);
  }
  parts->refs_by_subtree.resize(by_subtree_count);
  for (uint32_t i = 0; i < by_subtree_count; ++i) {
    if (support::Status st = reader.ReadIntVec(&parts->refs_by_subtree[i]); !st.ok()) {
      return st;
    }
  }
  int32_t max_id = 0;
  if (support::Status st = reader.ReadI32(&max_id); !st.ok()) {
    return st;
  }
  parts->max_id = max_id;
  return support::Status::Ok();
}

support::Status ParseCatalogSection(Reader& reader, desc::CatalogSnapshot* snap) {
  if (support::Status st = reader.ReadIntVec(&snap->core_ids); !st.ok()) {
    return st;
  }
  (void)reader.ReadSize(&snap->core_stats.kept);
  (void)reader.ReadSize(&snap->core_stats.elided);
  if (support::Status st = reader.ReadSize(&snap->core_stats.elided_enumerations); !st.ok()) {
    return st;
  }
  if (support::Status st = reader.ReadStr(&snap->core_text); !st.ok()) {
    return st;
  }
  (void)reader.ReadSize(&snap->core_tokens);
  if (support::Status st = reader.ReadSize(&snap->full_tokens); !st.ok()) {
    return st;
  }
  uint32_t subtree_count = 0;
  if (support::Status st = reader.ReadU32(&subtree_count); !st.ok()) {
    return st;
  }
  if (reader.remaining() < static_cast<size_t>(subtree_count) * 4) {
    return reader.Truncated(static_cast<size_t>(subtree_count) * 4);
  }
  snap->subtree_texts.resize(subtree_count);
  for (uint32_t s = 0; s < subtree_count; ++s) {
    if (support::Status st = reader.ReadStr(&snap->subtree_texts[s]); !st.ok()) {
      return st;
    }
  }
  return support::Status::Ok();
}

support::Status ParseStatsSection(Reader& reader, ModelingStats* s) {
  (void)reader.ReadSize(&s->raw.nodes);
  (void)reader.ReadSize(&s->raw.edges);
  (void)reader.ReadSize(&s->raw.merge_nodes);
  (void)reader.ReadSize(&s->raw.back_edges);
  if (support::Status st = reader.ReadI32(&s->raw.max_depth); !st.ok()) {
    return st;
  }
  (void)reader.ReadSize(&s->back_edges_removed);
  (void)reader.ReadSize(&s->unreachable_dropped);
  (void)reader.ReadSize(&s->forest_nodes);
  (void)reader.ReadSize(&s->shared_subtrees);
  (void)reader.ReadSize(&s->references);
  (void)reader.ReadSize(&s->core_nodes);
  (void)reader.ReadSize(&s->core_tokens);
  (void)reader.ReadSize(&s->full_tokens);
  (void)reader.ReadU64(&s->rip.clicks);
  (void)reader.ReadU64(&s->rip.captures);
  (void)reader.ReadU64(&s->rip.explored);
  (void)reader.ReadU64(&s->rip.external_recoveries);
  (void)reader.ReadU64(&s->rip.window_events);
  (void)reader.ReadU64(&s->rip.contexts);
  (void)reader.ReadU64(&s->rip.capture_rebuilds);
  (void)reader.ReadU64(&s->rip.capture_cache_hits);
  (void)reader.ReadU64(&s->rip.indexed_lookups);
  return reader.ReadF64(&s->rip.simulated_ms);
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
  const desc::CatalogSnapshot snapshot = model.catalog().Snapshot();

  std::string payload;
  payload.reserve(model.dag().node_count() * 128 + model.catalog().forest().total_nodes() * 40 +
                  snapshot.core_text.size() + model.static_prompt().size() + 4096);
  {
    const std::string body = BuildDagSection(model.dag());
    PutSection(payload, kSectionDag, model.dag().node_count(), body);
  }
  {
    const std::string body = BuildForestSection(model.catalog().forest());
    PutSection(payload, kSectionForest, model.catalog().forest().total_nodes(), body);
  }
  {
    const std::string body = BuildCatalogSection(snapshot);
    PutSection(payload, kSectionCatalog, snapshot.core_ids.size(), body);
  }
  PutSection(payload, kSectionPrompt, 1, BuildPromptSection(model));
  PutSection(payload, kSectionStats, 1, BuildStatsSection(model.stats()));
  PutSection(payload, kSectionOptions, 1, BuildOptionsSection(model.options()));
  // Written even when empty (a model compiled without a table): readers then
  // load an empty table and the delta ripper falls back to a full rip.
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

support::Result<LoadedModelArtifact> LoadModelArtifact(const std::string& path,
                                                       const ModelingOptions& runtime_options,
                                                       const ArtifactMeta* expect) {
  support::TraceSpan span("model.artifact_load", "model");
  const int64_t load_start_us = support::TraceNowUs();
  support::Result<std::string> bytes = support::ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Header header;
  if (support::Status st = ParseHeader(*bytes, path, &header); !st.ok()) {
    return st;
  }
  if (expect != nullptr && (header.meta.app_kind != expect->app_kind ||
                            header.meta.app_version != expect->app_version)) {
    return support::FailedPreconditionError(
               "artifact '" + path + "' is for (" + header.meta.app_kind + ", " +
               header.meta.app_version + "), expected (" + expect->app_kind + ", " +
               expect->app_version + ")")
        .WithDetail(ArtifactDetail(path, expect->app_kind + "-" + expect->app_version));
  }
  const char* payload = bytes->data() + header.payload_offset;
  const size_t payload_len = header.payload_len;

  // Scan the section table first — framing only, no body parsing. With the
  // spans known up front, the DAG section (by far the largest body) can
  // parse on a worker thread while this thread checksums the payload and
  // parses the remaining sections; all of it reads the same immutable byte
  // buffer.
  struct SectionSpan {
    uint32_t id = 0;
    size_t offset = 0;
    size_t len = 0;
  };
  std::vector<SectionSpan> spans;
  {
    Reader scan(payload, payload_len, path);
    support::Status scan_st;
    while (scan_st.ok() && scan.remaining() > 0) {
      SectionSpan s;
      uint64_t items = 0;
      size_t body_len = 0;
      scan_st = scan.ReadU32(&s.id);
      if (scan_st.ok()) {
        scan_st = scan.ReadU64(&items);
      }
      if (scan_st.ok()) {
        scan_st = scan.ReadSize(&body_len);
      }
      if (!scan_st.ok()) {
        break;
      }
      if (scan.remaining() < body_len) {
        scan_st = scan.Truncated(body_len);
        break;
      }
      s.offset = scan.pos();
      s.len = body_len;
      (void)scan.Skip(body_len);
      spans.push_back(s);
    }
    if (!scan_st.ok()) {
      // A mangled section table usually *is* flipped bytes; report the
      // checksum verdict first so corruption reads as corruption, not as a
      // structural bug in the writer.
      if (support::Status cst = VerifyChecksum(*bytes, header, path); !cst.ok()) {
        return cst;
      }
      return scan_st;
    }
  }

  std::unique_ptr<topo::NavGraph> dag;
  topo::ForestParts forest_parts;
  desc::CatalogSnapshot snapshot;
  CompiledModel::LoadedParts parts;
  parts.options = runtime_options;

  // Parses one section body from its slice, enforcing the declared length.
  auto parse_one = [&](const SectionSpan& s) -> support::Status {
    Reader reader(payload + s.offset, s.len, path);
    support::Status st;
    switch (s.id) {
      case kSectionDag:
        st = ParseDagSection(reader, path, &dag);
        break;
      case kSectionForest:
        st = ParseForestSection(reader, &forest_parts);
        break;
      case kSectionCatalog:
        st = ParseCatalogSection(reader, &snapshot);
        break;
      case kSectionPrompt:
        st = reader.ReadSize(&parts.usage_hint_tokens);
        if (st.ok()) {
          st = reader.ReadStr(&parts.static_prompt);
        }
        if (st.ok()) {
          st = reader.ReadSize(&parts.static_prompt_tokens);
        }
        break;
      case kSectionStats:
        st = ParseStatsSection(reader, &parts.stats);
        break;
      case kSectionOptions:
        st = ParseOptionsSection(reader, &parts.options);
        break;
      case kSectionChecksums:
        st = ParseChecksumsSection(reader, &parts.subtree_checksums);
        break;
      default:
        // Unknown section from an additive producer: skip (forward compat
        // within a format version; the checksum already vouched for the
        // bytes).
        return support::Status::Ok();
    }
    if (!st.ok()) {
      return st;
    }
    if (reader.remaining() != 0) {
      return support::InvalidArgumentError(
          support::Format("artifact '%s': section %s body length mismatch (declared %zu, "
                          "parsed %zu)",
                          path.c_str(), SectionName(s.id) ? SectionName(s.id) : "?", s.len,
                          s.len - reader.remaining()));
    }
    return support::Status::Ok();
  };

  // The DAG body dominates parse time. With a spare core, hand it to a
  // worker thread and overlap it with the checksum and the other sections
  // (the worker writes only `dag`; everything shared is read-only payload).
  // On a single-CPU host the two threads would just timeshare the core —
  // stay sequential there, which also keeps checksum-before-parse ordering
  // for free.
  const SectionSpan* dag_span = nullptr;
  for (const SectionSpan& s : spans) {
    if (s.id == kSectionDag) {
      dag_span = &s;
      break;
    }
  }
  const bool overlap_dag = dag_span != nullptr && std::thread::hardware_concurrency() > 1;
  support::Status dag_st;
  std::thread dag_worker;
  if (overlap_dag) {
    dag_worker = std::thread([&] { dag_st = parse_one(*dag_span); });
  }
  support::Status checksum_st = VerifyChecksum(*bytes, header, path);
  support::Status other_st;
  if (checksum_st.ok()) {
    for (const SectionSpan& s : spans) {
      if (s.id == kSectionDag) {
        continue;  // handled by the worker or below (first span wins)
      }
      other_st = parse_one(s);
      if (!other_st.ok()) {
        break;
      }
    }
  }
  if (dag_worker.joinable()) {
    dag_worker.join();
  } else if (checksum_st.ok() && other_st.ok() && dag_span != nullptr) {
    dag_st = parse_one(*dag_span);
  }
  // Corruption taxonomy: a checksum mismatch outranks any parse error — the
  // bytes are bad, not the structure.
  if (!checksum_st.ok()) {
    return checksum_st;
  }
  if (!other_st.ok()) {
    return other_st;
  }
  if (!dag_st.ok()) {
    return dag_st;
  }

  bool have[kLastRequiredSection + 1] = {};
  for (const SectionSpan& s : spans) {
    if (s.id >= 1 && s.id <= kLastRequiredSection) {
      have[s.id] = true;
    }
  }
  for (uint32_t id = 1; id <= kLastRequiredSection; ++id) {
    if (!have[id]) {
      return support::InvalidArgumentError("artifact '" + path + "' is missing the '" +
                                           SectionName(id) + "' section")
          .WithDetail(ArtifactDetail(path, std::string("section=") + SectionName(id)));
    }
  }

  // Index fixup: rebuild the forest and catalog around the loaded DAG.
  support::Result<topo::Forest> forest = topo::Forest::FromParts(std::move(forest_parts));
  if (!forest.ok()) {
    return forest.status();
  }
  parts.dag = std::move(dag);
  parts.catalog = desc::TopologyCatalog::FromSnapshot(
      parts.dag.get(), std::move(*forest), parts.options.describe, std::move(snapshot));

  LoadedModelArtifact loaded;
  loaded.meta = header.meta;
  loaded.model = CompiledModel::FromLoadedParts(std::move(parts));
  support::ObserveMetric("model.artifact_load_ms",
                         static_cast<double>(support::TraceNowUs() - load_start_us) / 1000.0);
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
