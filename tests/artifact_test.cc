// Binary model artifacts + registry (DESIGN.md §14): byte-identity of the
// cold-load path, typed rejection of every corruption mode, registry
// memoization / save-through / concurrent acquire, and checked writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/word_sim.h"
#include "src/dmi/model_artifact.h"
#include "src/dmi/model_registry.h"
#include "src/dmi/session.h"
#include "src/ripper/ripper.h"
#include "src/support/binio.h"

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

// ----- byte identity --------------------------------------------------------

TEST(ArtifactRoundTrip, ByteIdenticalModel) {
  const auto& compiled = WordModel();
  std::shared_ptr<const dmi::CompiledModel> loaded;
  ASSERT_TRUE(LoadBytesAs(WordArtifactBytes(), "word_roundtrip.dmim", &loaded).ok());

  // The static prompt segment and every memoized serialization must be
  // byte-identical — a loaded model must be indistinguishable to an agent.
  EXPECT_EQ(loaded->static_prompt(), compiled->static_prompt());
  EXPECT_EQ(loaded->static_prompt_tokens(), compiled->static_prompt_tokens());
  EXPECT_EQ(loaded->usage_hint_tokens(), compiled->usage_hint_tokens());
  EXPECT_EQ(loaded->catalog().CoreText(), compiled->catalog().CoreText());
  EXPECT_EQ(loaded->catalog().CoreTokens(), compiled->catalog().CoreTokens());
  EXPECT_EQ(loaded->catalog().FullTokens(), compiled->catalog().FullTokens());
  // FullText stays lazy on load; it composes from the seeded subtree texts
  // and must reproduce the compiled model's bytes.
  EXPECT_EQ(loaded->catalog().FullText(), compiled->catalog().FullText());
  ASSERT_EQ(loaded->catalog().forest().shared().size(),
            compiled->catalog().forest().shared().size());
  for (size_t s = 0; s < compiled->catalog().forest().shared().size(); ++s) {
    EXPECT_EQ(loaded->catalog().SubtreeText(static_cast<int>(s)),
              compiled->catalog().SubtreeText(static_cast<int>(s)));
  }

  // Structure and stats.
  EXPECT_EQ(loaded->dag().node_count(), compiled->dag().node_count());
  EXPECT_EQ(loaded->stats().forest_nodes, compiled->stats().forest_nodes);
  EXPECT_EQ(loaded->stats().core_tokens, compiled->stats().core_tokens);
  EXPECT_EQ(loaded->stats().raw.nodes, compiled->stats().raw.nodes);
  EXPECT_EQ(loaded->stats().rip.clicks, compiled->stats().rip.clicks);
  EXPECT_EQ(loaded->stats().rip.simulated_ms, compiled->stats().rip.simulated_ms);

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
  EXPECT_EQ(names, (std::vector<std::string>{"dag", "forest", "catalog", "prompt", "stats",
                                             "options", "checksums"}));
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
  // A future version and the retired version 1 (no checksums section) are
  // both rejected; the reader accepts exactly kArtifactFormatVersion.
  for (const char version : {char{99}, char{1}}) {
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
  // A flipped payload bit, and a version-1 file from before the checksums
  // section became required: old stores need no migration code, because
  // any rejected artifact costs one recompile and is then overwritten.
  std::string flipped = WordArtifactBytes();
  flipped[flipped.size() / 3] ^= 0x10;
  std::string version_one = WordArtifactBytes();
  version_one[12] = 1;  // format version lives right after the endian tag
  int store = 0;
  for (const std::string& bytes : {flipped, version_one}) {
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

// ----- part-level validation ------------------------------------------------

TEST(FromPartsTest, NavGraphRejectsMisalignedParts) {
  std::vector<topo::NodeInfo> nodes(2);
  nodes[0].control_id = "a";
  nodes[1].control_id = "b";
  // Adjacency shorter than the node list.
  auto misaligned = topo::NavGraph::FromParts(nodes, {{1}});
  ASSERT_FALSE(misaligned.ok());
  EXPECT_EQ(misaligned.status().code(), support::StatusCode::kInvalidArgument);
  // Edge target out of range.
  auto bad_edge = topo::NavGraph::FromParts(nodes, {{5}, {}});
  ASSERT_FALSE(bad_edge.ok());
  // Duplicate control id.
  nodes[1].control_id = "a";
  auto dup = topo::NavGraph::FromParts(nodes, {{}, {}});
  ASSERT_FALSE(dup.ok());
}

TEST(FromPartsTest, ForestRejectsInconsistentTables) {
  topo::ForestParts parts;
  parts.main.nodes.resize(1);
  parts.main.nodes[0].id = 0;
  parts.max_id = 0;
  // loc_by_id must span max_id + 1 entries.
  auto bad = topo::Forest::FromParts(parts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), support::StatusCode::kInvalidArgument);
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
