// Binary model artifacts + registry (DESIGN.md §14): a loaded model equals
// the compiled one, typed rejection of every corruption mode (a seeded
// mutation loop included), registry memoization / save-through / concurrent
// acquire, and checked writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/word_sim.h"
#include "src/dmi/model_artifact.h"
#include "src/dmi/model_registry.h"
#include "src/dmi/session.h"
#include "src/gui/application.h"
#include "src/ripper/ripper.h"
#include "src/support/binio.h"
#include "src/support/metrics.h"
#include "src/support/rng.h"
#include "src/topology/transform.h"

namespace {

dmi::ModelingOptions WordOptions() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  options.prune.manual_exclude_names = {"Styles Gallery"};
  return options;
}

// One WordSim rip+compile shared by every test in this file (the tests
// exercise the artifact layer, not the pipeline).
const std::shared_ptr<const dmi::CompiledModel>& WordModel() {
  static const std::shared_ptr<const dmi::CompiledModel> model = [] {
    apps::WordSim app;
    dmi::ModelingOptions options = WordOptions();
    ripper::GuiRipper rip(app, options.ripper_config);
    const topo::NavGraph graph = rip.Rip(options.contexts);
    return dmi::CompiledModel::Compile(graph, options, &rip.stats());
  }();
  return model;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Saves the shared model once and hands out the artifact bytes for the
// corruption tests to mutate.
const std::string& WordArtifactBytes() {
  static const std::string bytes = [] {
    const std::string path = TempPath("word_identity.dmim");
    dmi::ArtifactMeta meta{"WordSim", "1"};
    EXPECT_TRUE(dmi::SaveModelArtifact(*WordModel(), meta, path).ok());
    auto read = support::ReadFileBytes(path);
    EXPECT_TRUE(read.ok());
    return *read;
  }();
  return bytes;
}

support::Status LoadBytesAs(const std::string& bytes, const std::string& name,
                            std::shared_ptr<const dmi::CompiledModel>* out = nullptr) {
  const std::string path = TempPath(name);
  EXPECT_TRUE(support::WriteFileBytes(path, bytes).ok());
  auto loaded = dmi::LoadModelArtifact(path, WordOptions());
  if (loaded.ok() && out != nullptr) {
    *out = loaded->model;
  }
  return loaded.ok() ? support::Status::Ok() : loaded.status();
}

uint64_t Counter(const char* name) {
  return support::MetricsRegistry::Global().Snapshot().CounterValue(name);
}

// Every ModelingStats field: the rip counters come from the artifact, the
// rest from compiling the stored graph.
void ExpectSameStats(const dmi::ModelingStats& a, const dmi::ModelingStats& b) {
  EXPECT_EQ(a.raw.nodes, b.raw.nodes);
  EXPECT_EQ(a.raw.edges, b.raw.edges);
  EXPECT_EQ(a.raw.merge_nodes, b.raw.merge_nodes);
  EXPECT_EQ(a.raw.back_edges, b.raw.back_edges);
  EXPECT_EQ(a.raw.max_depth, b.raw.max_depth);
  EXPECT_EQ(a.back_edges_removed, b.back_edges_removed);
  EXPECT_EQ(a.unreachable_dropped, b.unreachable_dropped);
  EXPECT_EQ(a.forest_nodes, b.forest_nodes);
  EXPECT_EQ(a.shared_subtrees, b.shared_subtrees);
  EXPECT_EQ(a.references, b.references);
  EXPECT_EQ(a.core_nodes, b.core_nodes);
  EXPECT_EQ(a.core_tokens, b.core_tokens);
  EXPECT_EQ(a.full_tokens, b.full_tokens);
  EXPECT_EQ(a.rip.clicks, b.rip.clicks);
  EXPECT_EQ(a.rip.captures, b.rip.captures);
  EXPECT_EQ(a.rip.explored, b.rip.explored);
  EXPECT_EQ(a.rip.external_recoveries, b.rip.external_recoveries);
  EXPECT_EQ(a.rip.window_events, b.rip.window_events);
  EXPECT_EQ(a.rip.contexts, b.rip.contexts);
  EXPECT_EQ(a.rip.capture_rebuilds, b.rip.capture_rebuilds);
  EXPECT_EQ(a.rip.capture_cache_hits, b.rip.capture_cache_hits);
  EXPECT_EQ(a.rip.indexed_lookups, b.rip.indexed_lookups);
  EXPECT_EQ(a.rip.simulated_ms, b.rip.simulated_ms);
}

// ----- byte identity --------------------------------------------------------

TEST(ArtifactRoundTrip, ByteIdenticalModel) {
  const auto& compiled = WordModel();
  const std::string& bytes = WordArtifactBytes();
  const std::string dir = TempPath("registry_roundtrip");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", bytes).ok());
  const uint64_t model_builds = Counter("model.builds");
  const uint64_t rip_clicks = Counter("rip.clicks");
  const uint64_t rip_captures = Counter("rip.captures");

  // A registry cold load compiles the stored rip once and rips nothing.
  dmi::ModelRegistry registry(dir);
  auto acquired = registry.Acquire(
      "WordSim", "1", WordOptions(),
      []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
        return support::FailedPreconditionError("a cold load must not rip");
      });
  ASSERT_TRUE(acquired.ok()) << acquired.status().ToString();
  const std::shared_ptr<const dmi::CompiledModel> loaded = *acquired;
  EXPECT_EQ(registry.stats().artifact_loads, 1u);
  EXPECT_EQ(registry.stats().compiles, 0u);
  EXPECT_EQ(Counter("model.builds") - model_builds, 1u);
  EXPECT_EQ(Counter("rip.clicks") - rip_clicks, 0u);
  EXPECT_EQ(Counter("rip.captures") - rip_captures, 0u);

  // The stored graph is the compiled one, so every surface an agent sees is
  // byte-identical.
  EXPECT_TRUE(loaded->ripped().ToJson().Dump() == compiled->ripped().ToJson().Dump());
  EXPECT_EQ(loaded->static_prompt(), compiled->static_prompt());
  EXPECT_EQ(loaded->static_prompt_tokens(), compiled->static_prompt_tokens());
  EXPECT_EQ(loaded->usage_hint_tokens(), compiled->usage_hint_tokens());
  EXPECT_EQ(loaded->catalog().CoreText(), compiled->catalog().CoreText());
  EXPECT_EQ(loaded->catalog().CoreTokens(), compiled->catalog().CoreTokens());
  EXPECT_EQ(loaded->catalog().FullText(), compiled->catalog().FullText());
  EXPECT_EQ(loaded->catalog().FullTokens(), compiled->catalog().FullTokens());
  ASSERT_EQ(loaded->catalog().forest().shared().size(),
            compiled->catalog().forest().shared().size());
  for (size_t s = 0; s < compiled->catalog().forest().shared().size(); ++s) {
    EXPECT_EQ(loaded->catalog().SubtreeText(static_cast<int>(s)),
              compiled->catalog().SubtreeText(static_cast<int>(s)));
  }
  ExpectSameStats(loaded->stats(), compiled->stats());

  // The reader's forest bound measures what the compile then builds.
  EXPECT_EQ(topo::MeasureForest(loaded->ripped(), loaded->options().externalize_threshold).nodes,
            loaded->stats().forest_nodes);

  // Compile-time options travel with the artifact.
  EXPECT_EQ(loaded->options().prune.manual_exclude_names,
            compiled->options().prune.manual_exclude_names);
  EXPECT_EQ(loaded->options().externalize_threshold,
            compiled->options().externalize_threshold);
}

TEST(ArtifactRoundTrip, LoadedModelServesSessions) {
  const auto& compiled = WordModel();
  std::shared_ptr<const dmi::CompiledModel> loaded;
  ASSERT_TRUE(LoadBytesAs(WordArtifactBytes(), "word_session.dmim", &loaded).ok());

  // Name resolution answers identically.
  const std::vector<std::string> chain = {"Font", "Bold"};
  auto from_compiled = compiled->ResolveTargetByNames(chain);
  auto from_loaded = loaded->ResolveTargetByNames(chain);
  ASSERT_TRUE(from_compiled.ok());
  ASSERT_TRUE(from_loaded.ok());
  EXPECT_EQ(from_loaded->id, from_compiled->id);
  EXPECT_EQ(from_loaded->entry_ref_ids, from_compiled->entry_ref_ids);

  // A live session attached to the loaded model counts the same prompt.
  apps::WordSim app_a;
  apps::WordSim app_b;
  dmi::DmiSession session_a(app_a, compiled);
  dmi::DmiSession session_b(app_b, loaded);
  EXPECT_EQ(session_b.PromptTokens(), session_a.PromptTokens());
}

TEST(ArtifactRoundTrip, InspectReportsSections) {
  const std::string path = TempPath("word_inspect.dmim");
  ASSERT_TRUE(support::WriteFileBytes(path, WordArtifactBytes()).ok());
  auto info = dmi::InspectModelArtifact(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, dmi::kArtifactFormatVersion);
  EXPECT_EQ(info->meta.app_kind, "WordSim");
  EXPECT_EQ(info->meta.app_version, "1");
  EXPECT_TRUE(info->checksum_ok);
  std::vector<std::string> names;
  uint64_t section_bytes = 0;
  for (const auto& section : info->sections) {
    names.push_back(section.name);
    section_bytes += section.bytes;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"graph", "stats", "options", "checksums"}));
  // Section frames are 20 bytes each; bodies account for the whole payload.
  EXPECT_EQ(section_bytes + names.size() * 20, info->payload_bytes);
}

TEST(ArtifactRoundTrip, SaveCreatesMissingStoreDirectory) {
  // Model stores usually don't exist yet (fresh `dmi_run --model-dir`,
  // `dmi_modeler --out cache/...`): save must create the parent directories.
  const std::string path = TempPath("fresh_store/nested/word.dmim");
  dmi::ArtifactMeta meta{"WordSim", "1"};
  ASSERT_TRUE(dmi::SaveModelArtifact(*WordModel(), meta, path).ok());
  auto loaded = dmi::LoadModelArtifact(path, WordOptions(), &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model->static_prompt(), WordModel()->static_prompt());
}

// ----- corruption taxonomy --------------------------------------------------
// Every corrupt artifact is a distinct typed error, never a crash and never
// a silently wrong model.

TEST(ArtifactCorruption, MissingFileIsNotFound) {
  auto loaded = dmi::LoadModelArtifact(TempPath("nope.dmim"), WordOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kNotFound);
}

TEST(ArtifactCorruption, TruncatedFileIsInvalidArgument) {
  const std::string& good = WordArtifactBytes();
  // Mid-header and mid-payload truncations both reject as truncated.
  for (size_t keep : {size_t{6}, size_t{20}, good.size() / 2, good.size() - 1}) {
    support::Status st = LoadBytesAs(good.substr(0, keep), "word_trunc.dmim");
    ASSERT_FALSE(st.ok()) << "keep=" << keep;
    EXPECT_EQ(st.code(), support::StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST(ArtifactCorruption, BadMagicIsInvalidArgument) {
  std::string bytes = WordArtifactBytes();
  bytes[0] = 'X';
  support::Status st = LoadBytesAs(bytes, "word_magic.dmim");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("not a DMI model artifact"), std::string::npos);
  EXPECT_EQ(st.detail().required_pattern, "magic=DMIMODL");
}

TEST(ArtifactCorruption, ForeignEndiannessIsFailedPrecondition) {
  std::string bytes = WordArtifactBytes();
  // The byte sequence a byte-swapped producer would have left on disk (the
  // reverse of whatever this host wrote for 0x01020304).
  std::swap(bytes[8], bytes[11]);
  std::swap(bytes[9], bytes[10]);
  support::Status st = LoadBytesAs(bytes, "word_endian.dmim");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kFailedPrecondition);
}

TEST(ArtifactCorruption, UnsupportedVersionIsUnimplemented) {
  // A future version and the retired versions 1 (no checksums section) and
  // 2 (derived structures, no graph) are all rejected; the reader accepts
  // exactly kArtifactFormatVersion.
  for (const char version : {char{99}, char{1}, char{2}}) {
    std::string bytes = WordArtifactBytes();
    bytes[12] = version;  // format version lives right after the endian tag
    support::Status st = LoadBytesAs(bytes, "word_version.dmim");
    ASSERT_FALSE(st.ok()) << "version " << int{version};
    EXPECT_EQ(st.code(), support::StatusCode::kUnimplemented) << st.ToString();
  }
}

TEST(ArtifactCorruption, FlippedPayloadByteIsChecksumMismatch) {
  std::string bytes = WordArtifactBytes();
  bytes[bytes.size() / 2] ^= 0x40;
  support::Status st = LoadBytesAs(bytes, "word_checksum.dmim");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kInternal);
  EXPECT_NE(st.ToString().find("checksum mismatch"), std::string::npos);
}

TEST(ArtifactCorruption, TrailingGarbageIsInvalidArgument) {
  std::string bytes = WordArtifactBytes();
  bytes += "extra";
  support::Status st = LoadBytesAs(bytes, "word_trailing.dmim");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), support::StatusCode::kInvalidArgument);
}

TEST(ArtifactCorruption, WrongIdentityIsFailedPrecondition) {
  const std::string path = TempPath("word_identity_check.dmim");
  ASSERT_TRUE(support::WriteFileBytes(path, WordArtifactBytes()).ok());
  dmi::ArtifactMeta expect{"ExcelSim", "1"};
  auto loaded = dmi::LoadModelArtifact(path, WordOptions(), &expect);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kFailedPrecondition);
}

TEST(ArtifactCorruption, InspectFlagsBadChecksumWithoutFailing) {
  std::string bytes = WordArtifactBytes();
  bytes[bytes.size() - 1] ^= 0x01;
  const std::string path = TempPath("word_inspect_bad.dmim");
  ASSERT_TRUE(support::WriteFileBytes(path, bytes).ok());
  auto info = dmi::InspectModelArtifact(path);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->checksum_ok);
}

// ----- registry -------------------------------------------------------------

TEST(RegistryTest, CompileSaveThroughThenColdLoad) {
  const std::string dir = TempPath("registry_store_a");
  (void)std::remove((dir + "/WordSim-1.dmim").c_str());
  std::filesystem::create_directories(dir);

  dmi::ModelRegistry first(dir);
  int compile_calls = 0;
  auto compile = [&]() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    ++compile_calls;
    return WordModel();
  };
  auto a = first.Acquire("WordSim", "1", WordOptions(), compile);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(first.stats().compiles, 1u);
  EXPECT_EQ(first.stats().save_throughs, 1u);

  // Memo hit: same pointer, no second compile.
  auto b = first.Acquire("WordSim", "1", WordOptions(), compile);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(first.stats().memo_hits, 1u);

  // A fresh registry (≈ a fresh process) cold-loads the saved artifact.
  dmi::ModelRegistry second(dir);
  auto c = second.Acquire("WordSim", "1", WordOptions(), compile);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(second.stats().artifact_loads, 1u);
  EXPECT_EQ((*c)->static_prompt(), WordModel()->static_prompt());
}

TEST(RegistryTest, CorruptArtifactFallsBackAndHeals) {
  // A flipped payload bit, and files of the retired versions 1 and 2: old
  // stores need no migration code, because any rejected artifact costs one
  // recompile and is then overwritten.
  std::string flipped = WordArtifactBytes();
  flipped[flipped.size() / 3] ^= 0x10;
  std::string version_one = WordArtifactBytes();
  version_one[12] = 1;  // format version lives right after the endian tag
  std::string version_two = WordArtifactBytes();
  version_two[12] = 2;
  int store = 0;
  for (const std::string& bytes : {flipped, version_one, version_two}) {
    const std::string dir = TempPath("registry_store_b" + std::to_string(store++));
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", bytes).ok());

    dmi::ModelRegistry registry(dir);
    auto got = registry.Acquire(
        "WordSim", "1", WordOptions(),
        []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
          return WordModel();
        });
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(registry.stats().load_errors, 1u) << dir;
    EXPECT_EQ(registry.stats().compiles, 1u) << dir;
    // The save-through replaced the rejected artifact: the store is healthy
    // again for the next process.
    EXPECT_EQ(registry.stats().save_throughs, 1u) << dir;
    auto healed = dmi::LoadModelArtifact(dir + "/WordSim-1.dmim", WordOptions());
    EXPECT_TRUE(healed.ok()) << healed.status().ToString();
  }
}

TEST(RegistryTest, CorruptArtifactWarningLoggedOncePerKey) {
  const std::string dir = TempPath("registry_store_logmemo");
  std::filesystem::create_directories(dir);
  std::string bytes = WordArtifactBytes();
  bytes[bytes.size() / 3] ^= 0x10;
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", bytes).ok());

  // Failing compile fallback ≈ broken pipeline behind a corrupt store: the
  // memo never populates, so every Acquire re-reads and re-rejects the same
  // artifact. Each rejection counts, but only the first may log — a serving
  // daemon admits thousands of sessions against one registry and must not
  // emit one warning line per session for the same broken artifact.
  auto broken_compile = []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    return support::UnavailableError("pipeline down");
  };
  dmi::ModelRegistry registry(dir);
  EXPECT_FALSE(registry.Acquire("WordSim", "1", WordOptions(), broken_compile).ok());
  EXPECT_FALSE(registry.Acquire("WordSim", "1", WordOptions(), broken_compile).ok());
  EXPECT_EQ(registry.stats().load_errors, 2u);
  EXPECT_EQ(registry.stats().load_errors_logged, 1u);

  // A different version of the same kind is a different brokenness: it gets
  // its own (single) warning.
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-2.dmim", bytes).ok());
  EXPECT_FALSE(registry.Acquire("WordSim", "2", WordOptions(), broken_compile).ok());
  EXPECT_EQ(registry.stats().load_errors, 3u);
  EXPECT_EQ(registry.stats().load_errors_logged, 2u);
}

TEST(RegistryTest, ConcurrentAcquireSharesOneModel) {
  const std::string dir = TempPath("registry_store_c");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", WordArtifactBytes()).ok());

  dmi::ModelRegistry registry(dir);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const dmi::CompiledModel>> models(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto got = registry.Acquire(
          "WordSim", "1", WordOptions(),
          []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
            return WordModel();
          });
      if (got.ok()) {
        models[static_cast<size_t>(t)] = *got;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_NE(models[0], nullptr);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[static_cast<size_t>(t)].get(), models[0].get());
  }
  // Exactly one thread resolved from disk; everyone else memo-hit.
  EXPECT_EQ(registry.stats().artifact_loads, 1u);
  EXPECT_EQ(registry.stats().compiles, 0u);
  EXPECT_EQ(registry.stats().memo_hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(RegistryTest, NoStoreDegradesToMemo) {
  dmi::ModelRegistry registry;
  EXPECT_EQ(registry.ArtifactPath("WordSim", "1"), "");
  int compile_calls = 0;
  auto compile = [&]() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    ++compile_calls;
    return WordModel();
  };
  ASSERT_TRUE(registry.Acquire("WordSim", "1", WordOptions(), compile).ok());
  ASSERT_TRUE(registry.Acquire("WordSim", "1", WordOptions(), compile).ok());
  EXPECT_EQ(compile_calls, 1);
  EXPECT_EQ(registry.stats().save_throughs, 0u);
}

TEST(RegistryTest, RefreshCountsAndMemoizesTheLoadedBaseline) {
  // A fresh registry (≈ a fresh process) refreshes from a version that is
  // only on disk. The baseline load is Acquire's load: counted once and
  // memoized, so acquiring that version afterwards reads no file.
  const std::string dir = TempPath("registry_store_refresh");
  std::filesystem::create_directories(dir);
  (void)std::remove((dir + "/WordSim-2.dmim").c_str());
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", WordArtifactBytes()).ok());

  dmi::ModelRegistry registry(dir);
  std::shared_ptr<const dmi::CompiledModel> baseline;
  auto refreshed = registry.Refresh(
      "WordSim", "1", "2", WordOptions(),
      [&](const std::shared_ptr<const dmi::CompiledModel>& old)
          -> support::Result<dmi::ModelRegistry::Remodeled> {
        baseline = old;
        return dmi::ModelRegistry::Remodeled{WordModel(), 0};
      });
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(registry.stats().artifact_loads, 1u);

  auto again = registry.Acquire(
      "WordSim", "1", WordOptions(),
      []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
        return support::UnavailableError("must not compile");
      });
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->get(), baseline.get());
  EXPECT_EQ(registry.stats().artifact_loads, 1u);
  EXPECT_EQ(registry.stats().memo_hits, 1u);
}

TEST(RegistryTest, PruneKeepsAColdLoadedLatestVersion) {
  // A cold-loaded version is its kind's latest, exactly like a compiled one:
  // Prune must not drop the only version, even when nothing holds it.
  const std::string dir = TempPath("registry_store_prune");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(support::WriteFileBytes(dir + "/WordSim-1.dmim", WordArtifactBytes()).ok());

  dmi::ModelRegistry registry(dir);
  auto no_compile = []() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    return support::UnavailableError("must not compile");
  };
  ASSERT_TRUE(registry.Acquire("WordSim", "1", WordOptions(), no_compile).ok());
  EXPECT_EQ(registry.Prune("WordSim"), 0u);
  ASSERT_TRUE(registry.Acquire("WordSim", "1", WordOptions(), no_compile).ok());
  EXPECT_EQ(registry.stats().artifact_loads, 1u);
  EXPECT_EQ(registry.stats().memo_hits, 1u);
  EXPECT_EQ(registry.stats().pruned, 0u);
}

// ----- untrusted bytes: hand-made graphs and seeded mutations ---------------
//
// A test-side writer of the v3 layout (model_artifact.h). Unlike
// SaveModelArtifact it can write graphs no compile produces — repeated ids,
// dangling edges, unknown control types, chains deeper than the loader
// compiles — and it records where every length field sits, so the mutation
// loop can rewrite them.

struct TestNode {
  std::string id;
  std::string name;
  uint32_t type = static_cast<uint32_t>(uia::ControlType::kButton);
};

struct LengthField {
  size_t offset = 0;
  size_t width = 0;  // 4 or 8 bytes
};

class TestWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { out_.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void U64(uint64_t v) { out_.append(reinterpret_cast<const char*>(&v), sizeof(v)); }
  void Len32(size_t v) {
    fields_.push_back({out_.size(), 4});
    U32(static_cast<uint32_t>(v));
  }
  void Len64(size_t v) {
    fields_.push_back({out_.size(), 8});
    U64(v);
  }
  void Str(const std::string& s) {
    Len32(s.size());
    out_ += s;
  }
  void Append(const TestWriter& other) {
    for (LengthField f : other.fields_) {
      f.offset += out_.size();
      fields_.push_back(f);
    }
    out_ += other.out_;
  }
  void Section(uint32_t id, uint64_t items, const TestWriter& body) {
    U32(id);
    U64(items);
    Len64(body.out_.size());
    Append(body);
  }
  const std::string& bytes() const { return out_; }
  const std::vector<LengthField>& fields() const { return fields_; }

 private:
  std::string out_;
  std::vector<LengthField> fields_;
};

uint64_t PayloadChecksum(const char* data, size_t n) {
  gsim::StateHash hash;
  hash.MixBytes(data, n);
  return hash.digest();
}

struct TestArtifact {
  std::string bytes;
  std::vector<LengthField> fields;
  size_t checksum_offset = 0;  // the payload starts 8 bytes later
};

// Node 0 must be the virtual root; rows[i] lists node i's successors.
TestArtifact EncodeArtifact(
    const std::vector<TestNode>& nodes, const std::vector<std::vector<int>>& rows,
    uint64_t threshold = dmi::ModelingOptions{}.externalize_threshold) {
  TestWriter graph;
  graph.Len32(nodes.size());
  for (const TestNode& node : nodes) {
    graph.Str(node.id);
    graph.Str(node.name);
    graph.U32(node.type);
    graph.Str("");  // description
    graph.Str("");  // automation id
  }
  for (const std::vector<int>& row : rows) {
    graph.Len32(row.size());
    for (int to : row) {
      graph.U32(static_cast<uint32_t>(to));
    }
  }
  TestWriter stats;
  for (int i = 0; i < 10; ++i) {
    stats.U64(0);  // nine rip counters and the simulated milliseconds
  }
  const dmi::ModelingOptions defaults;
  TestWriter options;
  options.U8(defaults.augment_descriptions ? 1 : 0);
  options.U64(threshold);
  options.U32(static_cast<uint32_t>(defaults.prune.max_depth));
  options.U64(defaults.prune.enumeration_limit);
  options.Len32(0);  // no manual exclusions
  options.U64(defaults.describe.max_description_tokens);
  options.U8(defaults.describe.include_descriptions ? 1 : 0);
  TestWriter checksums;
  checksums.Len32(0);

  TestWriter payload;
  payload.Section(1, nodes.size(), graph);
  payload.Section(2, 1, stats);
  payload.Section(3, 1, options);
  payload.Section(4, 0, checksums);

  TestWriter file;
  for (char c : dmi::kArtifactMagic) {
    file.U8(static_cast<uint8_t>(c));
  }
  file.U32(dmi::kArtifactEndianTag);
  file.U32(dmi::kArtifactFormatVersion);
  file.Str("TestSim");
  file.Str("1");
  file.Len64(payload.bytes().size());
  TestArtifact out;
  out.checksum_offset = file.bytes().size();
  file.U64(PayloadChecksum(payload.bytes().data(), payload.bytes().size()));
  file.Append(payload);
  out.bytes = file.bytes();
  out.fields = file.fields();
  return out;
}

// Recomputes the payload checksum in place, so a mutation reaches the
// section parsers instead of stopping at the checksum.
void Restamp(std::string& bytes, size_t checksum_offset) {
  const size_t payload = checksum_offset + 8;
  if (bytes.size() < payload) {
    return;
  }
  const uint64_t sum = PayloadChecksum(bytes.data() + payload, bytes.size() - payload);
  std::memcpy(&bytes[checksum_offset], &sum, sizeof(sum));
}

TestNode Root() {
  topo::NavGraph graph;
  const topo::NodeInfo& root = graph.node(topo::NavGraph::kRootIndex);
  return {root.control_id, root.name, static_cast<uint32_t>(root.type)};
}

TestNode Node(const std::string& name, uia::ControlType type = uia::ControlType::kButton) {
  return {name + "|" + std::string(uia::ControlTypeName(type)) + "|", name,
          static_cast<uint32_t>(type)};
}

// A small graph with a merge node (Paste, reached from two menus) and a back
// edge (Copy -> Edit Menu), so the compile decycles and externalizes.
std::vector<TestNode> SmallNodes() {
  return {Root(),
          Node("Edit Menu", uia::ControlType::kMenuItem),
          Node("View Menu", uia::ControlType::kMenuItem),
          Node("Paste"),
          Node("Copy"),
          Node("Paste Special", uia::ControlType::kMenuItem)};
}
std::vector<std::vector<int>> SmallRows() { return {{1, 2}, {3, 4}, {3}, {5}, {1}, {}}; }

support::Status ParseStatus(const std::string& bytes) {
  auto parsed = dmi::ParseModelArtifact(bytes, "mutant", dmi::ModelingOptions{});
  return parsed.ok() ? support::Status::Ok() : parsed.status();
}

TEST(ArtifactMutation, SeededMutationsReturnStatusOrModel) {
  // The writer above is the format: for a valid graph it writes exactly what
  // SaveModelArtifact writes.
  const TestArtifact base = EncodeArtifact(SmallNodes(), SmallRows());
  {
    const std::vector<TestNode> nodes = SmallNodes();
    topo::NavGraph graph;
    for (size_t i = 1; i < nodes.size(); ++i) {
      const TestNode& node = nodes[i];
      topo::NodeInfo info;
      info.control_id = node.id;
      info.name = node.name;
      info.type = static_cast<uia::ControlType>(node.type);
      ASSERT_EQ(graph.AddNode(info), static_cast<int>(i));
    }
    const std::vector<std::vector<int>> rows = SmallRows();
    for (size_t from = 0; from < rows.size(); ++from) {
      for (int to : rows[from]) {
        graph.AddEdge(static_cast<int>(from), to);
      }
    }
    const std::string path = TempPath("small_graph.dmim");
    ASSERT_TRUE(dmi::SaveModelArtifact(*dmi::CompiledModel::Compile(graph, dmi::ModelingOptions{}),
                                       {"TestSim", "1"}, path)
                    .ok());
    auto saved = support::ReadFileBytes(path);
    ASSERT_TRUE(saved.ok());
    ASSERT_TRUE(*saved == base.bytes);
    auto parsed = dmi::ParseModelArtifact(base.bytes, "small", dmi::ModelingOptions{});
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const dmi::CompiledModel& model = *parsed->model;
    EXPECT_EQ(model.stats().back_edges_removed, 1u);
    const topo::ForestShape shape =
        topo::MeasureForest(model.ripped(), model.options().externalize_threshold);
    EXPECT_EQ(shape.nodes, model.stats().forest_nodes);
    EXPECT_EQ(shape.longest_root_path, 3);  // Edit Menu -> Paste -> Paste Special
  }

  // Hand-made graphs the writer never produces: each is a typed
  // kInvalidArgument naming what is wrong.
  struct Case {
    const char* what;
    std::vector<TestNode> nodes;
    std::vector<std::vector<int>> rows;
    const char* message;
    uint64_t threshold = dmi::ModelingOptions{}.externalize_threshold;
  };
  std::vector<TestNode> repeated = SmallNodes();
  repeated[4].id = repeated[3].id;
  std::vector<TestNode> unknown_type = SmallNodes();
  unknown_type[2].type = static_cast<uint32_t>(uia::kNumControlTypes);
  std::vector<TestNode> chain = {Root()};
  std::vector<std::vector<int>> chain_rows;
  constexpr int kChainNodes = 100000;  // Compile would overflow the stack on it
  for (int i = 1; i < kChainNodes; ++i) {
    chain.push_back(Node("Step " + std::to_string(i)));
    chain_rows.push_back({i});
  }
  chain_rows.emplace_back();
  // Sixty diamonds in a row: with no externalization (an unbounded stored
  // threshold) the forest would clone 2^60 paths.
  std::vector<TestNode> ladder = {Root()};
  std::vector<std::vector<int>> ladder_rows = {{1}};
  for (int d = 0; d < 60; ++d) {
    const int top = static_cast<int>(ladder.size());
    ladder.push_back(Node("Top " + std::to_string(d)));
    ladder.push_back(Node("Left " + std::to_string(d)));
    ladder.push_back(Node("Right " + std::to_string(d)));
    ladder_rows.push_back({top + 1, top + 2});
    ladder_rows.push_back({top + 3});
    ladder_rows.push_back({top + 3});
  }
  ladder.push_back(Node("Bottom"));
  ladder_rows.emplace_back();
  std::vector<std::vector<int>> short_rows = SmallRows();
  short_rows.pop_back();
  std::vector<std::vector<int>> dangling = SmallRows();
  dangling[5] = {6};
  const Case cases[] = {
      {"misaligned rows", SmallNodes(), short_rows, "truncated"},
      {"edge out of range", SmallNodes(), dangling, "out of range"},
      {"repeated id", repeated, SmallRows(), "repeats control id"},
      {"unknown control type", unknown_type, SmallRows(), "unknown control type"},
      {"100,000-node chain", chain, chain_rows, "root path"},
      {"diamond ladder, unbounded threshold", ladder, ladder_rows, "forest", ~uint64_t{0}},
  };
  for (const Case& c : cases) {
    const support::Status st = ParseStatus(EncodeArtifact(c.nodes, c.rows, c.threshold).bytes);
    ASSERT_FALSE(st.ok()) << c.what;
    EXPECT_EQ(st.code(), support::StatusCode::kInvalidArgument) << c.what << ": " << st.ToString();
    EXPECT_NE(st.ToString().find(c.message), std::string::npos) << c.what << ": "
                                                                << st.ToString();
  }

  // Seeded mutations of the valid artifact: flipped bytes, truncations and
  // rewritten length fields, most re-stamped so they reach the section
  // parsers. Each must come back as a model or a typed error, never a crash.
  support::Rng rng(20260101);
  std::map<support::StatusCode, int> outcomes;
  int models = 0;
  constexpr int kIterations = 2000;
  for (int i = 0; i < kIterations; ++i) {
    std::string bytes = base.bytes;
    switch (rng.NextBelow(3)) {
      case 0:
        for (uint64_t n = 1 + rng.NextBelow(4); n > 0; --n) {
          bytes[rng.NextBelow(bytes.size())] ^= static_cast<char>(1 + rng.NextBelow(255));
        }
        break;
      case 1:
        bytes.resize(rng.NextBelow(bytes.size()));
        break;
      default: {
        const LengthField& field = base.fields[rng.NextBelow(base.fields.size())];
        uint64_t value = 0;
        if (field.width == 4) {
          uint32_t narrow = 0;
          std::memcpy(&narrow, &bytes[field.offset], 4);
          value = narrow;
        } else {
          std::memcpy(&value, &bytes[field.offset], 8);
        }
        const uint64_t choices[] = {0, 1, value - 1, value + 1, value * 2, rng.Next(),
                                    ~uint64_t{0}};
        value = choices[rng.NextBelow(7)];
        if (field.width == 4) {
          const uint32_t narrow = static_cast<uint32_t>(value);
          std::memcpy(&bytes[field.offset], &narrow, 4);
        } else {
          std::memcpy(&bytes[field.offset], &value, 8);
        }
        break;
      }
    }
    if (rng.NextBelow(10) < 8) {
      Restamp(bytes, base.checksum_offset);
    }
    auto parsed = dmi::ParseModelArtifact(bytes, "mutant", dmi::ModelingOptions{});
    if (parsed.ok()) {
      ++models;
      // A model that loads is a usable model.
      const dmi::CompiledModel& model = *parsed->model;
      EXPECT_FALSE(model.static_prompt().empty());
      (void)model.catalog().FullTokens();
      for (int id : model.catalog().forest().AllIds()) {
        (void)model.catalog().ExpandBranch(id);
      }
      (void)model.ResolveTargetByNames({"Paste"});
    } else {
      ++outcomes[parsed.status().code()];
    }
  }
  // The loop reached every layer: the header, the checksum and the section
  // parsers all rejected something, and some mutations still loaded.
  EXPECT_GT(models, 0);
  EXPECT_GT(outcomes[support::StatusCode::kInvalidArgument], 0);
  EXPECT_GT(outcomes[support::StatusCode::kInternal], 0);
  int total = models;
  for (const auto& [code, n] : outcomes) {
    total += n;
  }
  EXPECT_EQ(total, kIterations);
}

// ----- binio ----------------------------------------------------------------

TEST(BinioTest, TypedErrorsNamePath) {
  auto missing = support::ReadFileBytes(TempPath("binio_missing.bin"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), support::StatusCode::kNotFound);
  EXPECT_NE(missing.status().detail().control_id.find("binio_missing.bin"),
            std::string::npos);

  auto unwritable = support::WriteFileBytes(TempPath("no_such_dir/out.bin"), "x");
  ASSERT_FALSE(unwritable.ok());
  EXPECT_EQ(unwritable.code(), support::StatusCode::kInvalidArgument);

  const std::string path = TempPath("binio_roundtrip.bin");
  const std::string payload("ab\0cd\xff", 6);
  ASSERT_TRUE(support::WriteFileBytes(path, payload).ok());
  auto read = support::ReadFileBytes(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
}

// ----- model persistence (§5.2: reusable across machines) --------------------

TEST(PersistenceTest, SessionFromLoadedModelDrivesTheApp) {
  // Save to a .dmim file, cold-load it, and drive a fresh app through a
  // session attached to the loaded model: the resolved Bold target clicks.
  const std::string path = TempPath("word_drive.dmim");
  ASSERT_TRUE(dmi::SaveModelArtifact(*WordModel(), {"WordSim", "1"}, path).ok());
  auto loaded = dmi::LoadModelArtifact(path, WordOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  apps::WordSim app;
  dmi::DmiSession session(app, loaded->model);
  app.SetSelection(0, 0);
  auto bold = session.ResolveTargetByNames({"Font", "Bold"});
  ASSERT_TRUE(bold.ok());
  dmi::VisitCommand cmd;
  cmd.target_id = bold->id;
  cmd.entry_ref_ids = bold->entry_ref_ids;
  const dmi::VisitReport report = session.VisitParsed({cmd});
  ASSERT_TRUE(report.overall.ok()) << report.Render();
  EXPECT_TRUE(app.paragraphs()[0].fmt.bold);
  std::remove(path.c_str());
}

TEST(PersistenceTest, SaveSurfacesFlushFailure) {
  // /dev/full accepts the open and buffers the write, then fails on flush:
  // a small payload fits in the stdio buffer, so the error can only surface
  // at fclose — the exact path a silently-ignored fclose return would lose.
  std::FILE* probe = std::fopen("/dev/full", "wb");
  if (probe == nullptr) {
    GTEST_SKIP() << "/dev/full not available";
  }
  (void)std::fclose(probe);
  const support::Status s = support::WriteFileBytes("/dev/full", "tiny");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), support::StatusCode::kInternal) << s.ToString();
  // A whole model artifact takes the short-write path instead; both must fail.
  const support::Status saved =
      dmi::SaveModelArtifact(*WordModel(), {"WordSim", "1"}, "/dev/full");
  EXPECT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), support::StatusCode::kInternal) << saved.ToString();
}

}  // namespace
