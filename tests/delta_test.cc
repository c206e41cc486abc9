// Delta ripping + live model versioning (DESIGN.md §15): mutation-injection
// byte-identity (a delta-ripped model must be indistinguishable from a
// from-scratch rip of the updated build), checksum-table stability, the
// registry's Refresh/Prune swap semantics, refreshes of artifact-loaded
// models, and the workers=4 zero-downtime concurrent swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/apps/office_common.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/model_artifact.h"
#include "src/dmi/model_registry.h"
#include "src/dmi/service_config.h"
#include "src/ripper/delta.h"
#include "src/ripper/ripper.h"
#include "src/support/binio.h"
#include "src/support/flight_recorder.h"
#include "src/workload/tasks.h"

namespace {

using agentsim::RunConfig;
using agentsim::SuiteResult;
using agentsim::TaskRunner;

dmi::ModelingOptions WordOptions() {
  dmi::ModelingOptions options;
  options.ripper_config.blocklist = {"Account", "Feedback"};
  options.prune.manual_exclude_names = {"Styles Gallery"};
  return options;
}

std::string TempDirFor(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  // Wipe leftovers from earlier invocations: a stale artifact would turn the
  // compile tier under test into a cold load.
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// First static-tree match by true name (children + owned popups — enough to
// reach ribbon panels and menu popups; dialogs go through FindDialog).
gsim::Control* FindControl(gsim::Control& root, const std::string& name,
                           std::optional<uia::ControlType> type = std::nullopt) {
  gsim::Control* found = nullptr;
  root.WalkStatic([&](gsim::Control& c) {
    if (found == nullptr && c.TrueName() == name && (!type || c.Type() == *type)) {
      found = &c;
    }
  });
  return found;
}

// ----- mutation classes -----------------------------------------------------
//
// Each mutator runs on a freshly constructed WordSim *before* any fresh-state
// capture (the pool/ripper capture later), modeling an app update shipping a
// changed build. All anchors live in partitions no workload task touches, so
// the concurrent-swap test can reuse them as behaviorally compatible updates.

using Mutator = std::function<void(gsim::Application&)>;

void RenameMenuEntry(gsim::Application& app) {
  gsim::Control* c = FindControl(app.main_window().root(), "Manage Sources");
  ASSERT_NE(c, nullptr);
  c->RenameTo("Manage Sources (Legacy)");
}

void AddOptionsDialog(gsim::Application& app) {
  gsim::Control* file_menu = FindControl(app.main_window().root(), "File Menu");
  ASSERT_NE(file_menu, nullptr);
  apps::AddDialogLauncher(*file_menu, "Word Options", "word_options_dialog");
  std::unique_ptr<gsim::Window> dialog = apps::MakeDialog("Word Options", "app.apply_options");
  apps::AddToggle(dialog->root(), "Dark Mode", "opt.dark_mode");
  app.RegisterDialog("word_options_dialog", std::move(dialog));
}

void RetitleTab(gsim::Application& app) {
  gsim::Control* tab =
      FindControl(app.main_window().root(), "Review", uia::ControlType::kTabItem);
  ASSERT_NE(tab, nullptr);
  tab->RenameTo("Review Tools");
}

void DeleteMacrosGroup(gsim::Application& app) {
  gsim::Control* group = FindControl(app.main_window().root(), "Macros");
  ASSERT_NE(group, nullptr);
  ASSERT_NE(group->parent_control(), nullptr);
  group->parent_control()->RemoveChild(group);  // returned unique_ptr dropped: destroyed
}

Mutator Combined() {
  return [](gsim::Application& app) {
    RenameMenuEntry(app);
    AddOptionsDialog(app);
    RetitleTab(app);
    DeleteMacrosGroup(app);
  };
}

std::function<std::unique_ptr<gsim::Application>()> FactoryFor(const Mutator& mutate) {
  return [mutate]() -> std::unique_ptr<gsim::Application> {
    auto app = std::make_unique<apps::WordSim>();
    if (mutate) {
      mutate(*app);
    }
    return app;
  };
}

// ----- baseline + scratch pipelines -----------------------------------------

// The baseline model carries everything a delta rip needs: its ripped graph
// (ripped()) and the app's checksum table (subtree_checksums()).
std::shared_ptr<const dmi::CompiledModel> BuildBaseline(const dmi::ModelingOptions& options) {
  apps::WordSim app;
  const ripper::ChecksumTable checksums = ripper::ComputeSubtreeChecksums(app);
  ripper::GuiRipper rip(app, options.ripper_config);
  // Canonical layout, matching the runner's offline pipeline and the delta
  // contract (DeltaRip emits canonicalized graphs).
  return dmi::CompiledModel::Compile(rip.Rip(options.contexts).Canonicalized(), options,
                                     &rip.stats(), &checksums);
}

std::string ArtifactBytesOf(const dmi::CompiledModel& model, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  dmi::ArtifactMeta meta{"WordSim", "2"};
  EXPECT_TRUE(dmi::SaveModelArtifact(model, meta, path).ok());
  auto bytes = support::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::string();
}

// The correctness bar: delta rip + compile of the mutated build must be
// byte-identical — serialized topology AND artifact bytes — to a from-scratch
// rip+compile of the same build. `scratch_stats_out` receives the
// from-scratch rip's counters, the work the delta path exists to avoid.
void ExpectDeltaMatchesScratch(const Mutator& mutate, const std::string& tag,
                               ripper::DeltaRipResult* delta_out = nullptr,
                               ripper::RipStats* scratch_stats_out = nullptr) {
  const dmi::ModelingOptions options = WordOptions();
  const std::shared_ptr<const dmi::CompiledModel> baseline = BuildBaseline(options);

  ripper::DeltaRipOptions delta_options;
  delta_options.config = options.ripper_config;
  delta_options.extra_contexts = options.contexts;
  delta_options.app_factory = FactoryFor(mutate);
  support::Result<ripper::DeltaRipResult> delta =
      ripper::DeltaRip(delta_options, baseline->ripped(), baseline->subtree_checksums());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_FALSE(delta->full_fallback) << tag << ": delta path fell back to a full rip";
  EXPECT_GT(delta->nodes_reused, 0u) << tag;
  EXPECT_GT(delta->partitions_total, 0u) << tag;

  const std::shared_ptr<const dmi::CompiledModel> delta_model =
      dmi::CompiledModel::Compile(delta->graph, options, &delta->stats, &delta->checksums);

  // From-scratch reference over an identically mutated instance. The delta's
  // own RipStats are injected into the reference compile so the artifact's
  // stats section (the honest counters of the work actually spent) matches —
  // everything else must agree because the pipelines agree.
  std::unique_ptr<gsim::Application> scratch_app = FactoryFor(mutate)();
  const ripper::ChecksumTable scratch_checksums = ripper::ComputeSubtreeChecksums(*scratch_app);
  ripper::GuiRipper scratch_rip(*scratch_app, options.ripper_config);
  const topo::NavGraph scratch_graph = scratch_rip.Rip(options.contexts).Canonicalized();
  const std::shared_ptr<const dmi::CompiledModel> scratch_model =
      dmi::CompiledModel::Compile(scratch_graph, options, &delta->stats, &delta->checksums);

  // The fresh checksum table the delta emits must equal the one a scratch
  // walk computes (it becomes the next baseline).
  ASSERT_EQ(delta->checksums.size(), scratch_checksums.size()) << tag;
  for (size_t i = 0; i < scratch_checksums.size(); ++i) {
    EXPECT_EQ(delta->checksums[i].key, scratch_checksums[i].key) << tag;
    EXPECT_EQ(delta->checksums[i].checksum, scratch_checksums[i].checksum)
        << tag << ": " << scratch_checksums[i].key;
  }

  EXPECT_EQ(delta->graph.node_count(), scratch_graph.node_count()) << tag;
  EXPECT_EQ(delta->graph.edge_count(), scratch_graph.edge_count()) << tag;
  EXPECT_EQ(delta_model->catalog().FullText(), scratch_model->catalog().FullText()) << tag;
  EXPECT_EQ(delta_model->static_prompt(), scratch_model->static_prompt()) << tag;
  EXPECT_EQ(ArtifactBytesOf(*delta_model, tag + "_delta.dmim"),
            ArtifactBytesOf(*scratch_model, tag + "_scratch.dmim"))
      << tag << ": artifact bytes diverged";

  if (delta_out != nullptr) {
    *delta_out = std::move(*delta);
  }
  if (scratch_stats_out != nullptr) {
    *scratch_stats_out = scratch_rip.stats();
  }
}

bool Contains(const std::vector<std::string>& v, const std::string& key) {
  return std::find(v.begin(), v.end(), key) != v.end();
}

// ----- mutation-injection suite ---------------------------------------------

TEST(DeltaRip, RenameMenuEntryIsByteIdentical) {
  ripper::DeltaRipResult delta;
  ripper::RipStats scratch;
  ExpectDeltaMatchesScratch(RenameMenuEntry, "rename", &delta, &scratch);
  // The rename lives in the References ribbon partition; nothing else moved.
  EXPECT_EQ(delta.diff.changed, std::vector<std::string>{"main:Ribbon Tabs/References"});
  EXPECT_TRUE(delta.diff.added.empty());
  EXPECT_TRUE(delta.diff.removed.empty());
  // Re-ripping one partition costs at most a fifth of a full rip's clicks.
  EXPECT_GT(delta.stats.clicks, 0u);
  EXPECT_LE(delta.stats.clicks * 5, scratch.clicks)
      << delta.stats.clicks << " delta vs " << scratch.clicks << " full clicks";
}

TEST(DeltaRip, AddDialogIsByteIdentical) {
  ripper::DeltaRipResult delta;
  ExpectDeltaMatchesScratch(AddOptionsDialog, "add_dialog", &delta);
  // The launcher lands in the File menu partition; the dialog itself is a new
  // satellite.
  EXPECT_TRUE(Contains(delta.diff.changed, "main:File")) << "changed: " << delta.diff.changed.size();
  EXPECT_TRUE(Contains(delta.diff.added, "dialog:Word Options"));
  EXPECT_TRUE(delta.diff.removed.empty());
}

TEST(DeltaRip, RetitleTabIsByteIdentical) {
  ripper::DeltaRipResult delta;
  ExpectDeltaMatchesScratch(RetitleTab, "retitle_tab", &delta);
  // A tab retitle renames the partition key itself: old key out, new key in.
  EXPECT_TRUE(Contains(delta.diff.added, "main:Ribbon Tabs/Review Tools"));
  EXPECT_TRUE(Contains(delta.diff.removed, "main:Ribbon Tabs/Review"));
}

TEST(DeltaRip, DeleteSubtreeIsByteIdentical) {
  ripper::DeltaRipResult delta;
  ExpectDeltaMatchesScratch(DeleteMacrosGroup, "delete_subtree", &delta);
  EXPECT_EQ(delta.diff.changed, std::vector<std::string>{"main:Ribbon Tabs/View"});
  EXPECT_TRUE(delta.diff.added.empty());
  EXPECT_TRUE(delta.diff.removed.empty());
}

TEST(DeltaRip, CombinedMutationsAreByteIdentical) {
  ripper::DeltaRipResult delta;
  ripper::RipStats scratch;
  ExpectDeltaMatchesScratch(Combined(), "combined", &delta, &scratch);
  EXPECT_FALSE(delta.diff.Empty());
  EXPECT_GT(delta.nodes_reripped, 0u);
  // Four mutations touch four partitions: still at most a third of the clicks.
  EXPECT_LE(delta.stats.clicks * 3, scratch.clicks)
      << delta.stats.clicks << " delta vs " << scratch.clicks << " full clicks";
}

TEST(DeltaRip, EmptyBaselineTableFallsBackToFullRip) {
  const dmi::ModelingOptions options = WordOptions();
  const std::shared_ptr<const dmi::CompiledModel> baseline = BuildBaseline(options);
  ripper::DeltaRipOptions delta_options;
  delta_options.config = options.ripper_config;
  delta_options.extra_contexts = options.contexts;
  delta_options.app_factory = FactoryFor(RenameMenuEntry);
  // A model saved with no checksum table has no baseline to diff against,
  // so the delta path degrades to a full rip instead of erroring.
  support::Result<ripper::DeltaRipResult> delta =
      ripper::DeltaRip(delta_options, baseline->ripped(), ripper::ChecksumTable{});
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta->full_fallback);
  EXPECT_EQ(delta->nodes_reused, 0u);

  std::unique_ptr<gsim::Application> scratch_app = FactoryFor(RenameMenuEntry)();
  ripper::GuiRipper scratch_rip(*scratch_app, options.ripper_config);
  const topo::NavGraph scratch_graph = scratch_rip.Rip(options.contexts).Canonicalized();
  // Compared as a predicate: a mismatch would otherwise print two
  // megabyte-sized documents.
  EXPECT_TRUE(delta->graph.ToJson().Dump() == scratch_graph.ToJson().Dump());
}

// ----- PowerPoint: rip contexts go through the model pipeline ---------------
//
// PowerPoint's model has an image-selected context, the only way to reach
// the Picture Format tab. The delta rip must rip it exactly as the runner's
// offline pipeline does (one app, GuiRipper::Rip(contexts), canonicalized),
// so a refresh publishes the model a cold build would.

void RenameResetPicture(gsim::Application& app) {
  gsim::Control* c = FindControl(app.main_window().root(), "Reset Picture");
  ASSERT_NE(c, nullptr);
  c->RenameTo("Reset Picture (Legacy)");
}

std::function<std::unique_ptr<gsim::Application>()> PpointFactoryFor(const Mutator& mutate) {
  return [mutate]() -> std::unique_ptr<gsim::Application> {
    auto app = std::make_unique<apps::PpointSim>();
    if (mutate) {
      mutate(*app);
    }
    return app;
  };
}

// The delta result must equal the model pipeline's rip of the same build,
// byte for byte, and compile to the same static prompt.
void ExpectPpointDeltaMatchesModelPipeline(const Mutator& mutate, const topo::NavGraph& baseline,
                                           const ripper::ChecksumTable& baseline_checksums,
                                           bool expect_fallback) {
  const dmi::ModelingOptions options =
      TaskRunner::DefaultModelingOptions(workload::AppKind::kPpoint);
  ASSERT_FALSE(options.contexts.empty());
  ripper::DeltaRipOptions delta_options;
  delta_options.config = options.ripper_config;
  delta_options.extra_contexts = options.contexts;
  delta_options.app_factory = PpointFactoryFor(mutate);
  support::Result<ripper::DeltaRipResult> delta =
      ripper::DeltaRip(delta_options, baseline, baseline_checksums);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->full_fallback, expect_fallback);

  std::unique_ptr<gsim::Application> scratch_app = PpointFactoryFor(mutate)();
  ripper::GuiRipper scratch_rip(*scratch_app, options.ripper_config);
  const topo::NavGraph scratch_graph = scratch_rip.Rip(options.contexts).Canonicalized();
  EXPECT_EQ(delta->graph.edge_count(), scratch_graph.edge_count());
  EXPECT_TRUE(delta->graph.ToJson().Dump() == scratch_graph.ToJson().Dump());

  const auto delta_model =
      dmi::CompiledModel::Compile(delta->graph, options, &delta->stats, &delta->checksums);
  const auto scratch_model =
      dmi::CompiledModel::Compile(scratch_graph, options, &delta->stats, &delta->checksums);
  EXPECT_EQ(delta_model->static_prompt_tokens(), scratch_model->static_prompt_tokens());
  EXPECT_TRUE(delta_model->static_prompt() == scratch_model->static_prompt());
}

TEST(DeltaRip, PowerPointEmptyTableFallbackMatchesModelPipeline) {
  // A baseline with no checksum table (a model compiled without one) takes
  // the full-rip fallback, which must rip exactly as the model pipeline does.
  ExpectPpointDeltaMatchesModelPipeline(nullptr, topo::NavGraph(), ripper::ChecksumTable{},
                                        /*expect_fallback=*/true);
}

TEST(DeltaRip, PowerPointContextOnlyRenameMatchesModelPipeline) {
  const dmi::ModelingOptions options =
      TaskRunner::DefaultModelingOptions(workload::AppKind::kPpoint);
  apps::PpointSim app;
  const ripper::ChecksumTable checksums = ripper::ComputeSubtreeChecksums(app);
  ripper::GuiRipper rip(app, options.ripper_config);
  const topo::NavGraph baseline = rip.Rip(options.contexts).Canonicalized();
  // "Reset Picture" lives in the Picture Format tab, which only the image
  // context reveals: the scoped rip must reach it through that context.
  ExpectPpointDeltaMatchesModelPipeline(RenameResetPicture, baseline, checksums,
                                        /*expect_fallback=*/false);
}

TEST(DeltaRip, ChecksumTableIsInstanceStable) {
  apps::WordSim a;
  apps::WordSim b;
  const ripper::ChecksumTable ta = ripper::ComputeSubtreeChecksums(a);
  const ripper::ChecksumTable tb = ripper::ComputeSubtreeChecksums(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    // Runtime ids differ between the instances; the structural digest must
    // not see them.
    EXPECT_EQ(ta[i].checksum, tb[i].checksum) << ta[i].key;
  }
  apps::WordSim c;
  RenameMenuEntry(c);
  const ripper::ChecksumTable tc = ripper::ComputeSubtreeChecksums(c);
  EXPECT_FALSE(ripper::DiffChecksumTables(ta, tc).Empty());
}

TEST(DeltaRip, ArtifactBackedRefreshReusesItsBaseline) {
  // A model cold-loaded from a .dmim keeps the ripped graph it was compiled
  // from, so a --model-dir runner refreshes against it exactly as an
  // in-process runner does.
  const workload::AppKind kind = workload::AppKind::kPpoint;
  const std::string dir = TempDirFor("delta_artifact_refresh");
  size_t baseline_nodes = 0;
  uint64_t full_rip_clicks = 0;
  {
    TaskRunner writer;
    writer.SetModelDir(dir);
    baseline_nodes = writer.modeling_stats(kind).raw.nodes;  // rip, compile, save
    full_rip_clicks = writer.modeling_stats(kind).rip.clicks;
  }
  ASSERT_GT(full_rip_clicks, 0u);

  TaskRunner runner;
  runner.SetModelDir(dir);
  // An unchanged build: the cold-loaded baseline is spliced whole, every
  // node but the virtual root reused, and nothing is re-ripped.
  ASSERT_TRUE(runner.RefreshModel(kind, "2", PpointFactoryFor(nullptr)).ok());
  dmi::ModelRegistry::Stats stats = runner.model_registry()->stats();
  EXPECT_EQ(stats.artifact_loads, 1u);
  EXPECT_EQ(stats.compiles, 0u);
  EXPECT_EQ(stats.delta_nodes_reused, baseline_nodes - 1);  // 4,181 nodes
  EXPECT_EQ(runner.modeling_stats(kind).rip.clicks, 0u);

  // A renamed control takes the delta path (a fallback reuses no node and
  // spends a full rip's clicks) and publishes the model a cold build of the
  // same build compiles to.
  ASSERT_TRUE(runner.RefreshModel(kind, "3", PpointFactoryFor(RenameResetPicture)).ok());
  stats = runner.model_registry()->stats();
  EXPECT_GT(stats.delta_nodes_reused, baseline_nodes - 1);
  EXPECT_GT(runner.modeling_stats(kind).rip.clicks, 0u);
  EXPECT_LT(runner.modeling_stats(kind).rip.clicks, full_rip_clicks);
  auto published = runner.mutable_model_registry()->Acquire(
      "PpointSim", "3", TaskRunner::DefaultModelingOptions(kind), [] {
        return support::Result<std::shared_ptr<const dmi::CompiledModel>>(
            support::FailedPreconditionError("memo hit expected"));
      });
  ASSERT_TRUE(published.ok()) << published.status().ToString();

  const dmi::ModelingOptions options = TaskRunner::DefaultModelingOptions(kind);
  std::unique_ptr<gsim::Application> cold_app = PpointFactoryFor(RenameResetPicture)();
  ripper::GuiRipper cold_rip(*cold_app, options.ripper_config);
  const auto cold = dmi::CompiledModel::Compile(cold_rip.Rip(options.contexts).Canonicalized(),
                                                options);
  EXPECT_EQ((*published)->static_prompt_tokens(), cold->static_prompt_tokens());
  EXPECT_TRUE((*published)->static_prompt() == cold->static_prompt());
}

// ----- registry refresh + prune ---------------------------------------------

TEST(ModelRegistrySwap, RefreshPublishesAtomicallyAndPruneReclaims) {
  const dmi::ModelingOptions options = WordOptions();
  std::shared_ptr<const dmi::CompiledModel> baseline = BuildBaseline(options);
  dmi::ModelRegistry registry(TempDirFor("delta_registry"));
  support::FlightRecorder recorder(/*run_id=*/77, /*capacity=*/32);
  registry.SetFlightRecorder(&recorder);

  auto v1 = registry.Acquire("WordSim", "1", options,
                             [&] { return support::Result<std::shared_ptr<const dmi::CompiledModel>>(
                                       baseline); });
  ASSERT_TRUE(v1.ok());
  std::shared_ptr<const dmi::CompiledModel> old_model = *v1;
  const std::string old_prompt = old_model->static_prompt();

  auto remodel = [&](const std::shared_ptr<const dmi::CompiledModel>& reg_baseline)
      -> support::Result<dmi::ModelRegistry::Remodeled> {
    EXPECT_EQ(reg_baseline.get(), baseline.get());
    ripper::DeltaRipOptions delta_options;
    delta_options.config = options.ripper_config;
    delta_options.extra_contexts = options.contexts;
    delta_options.app_factory = FactoryFor(RenameMenuEntry);
    auto delta = ripper::DeltaRip(delta_options, reg_baseline->ripped(),
                                  reg_baseline->subtree_checksums());
    if (!delta.ok()) {
      return delta.status();
    }
    auto model = dmi::CompiledModel::Compile(std::move(delta->graph), options, &delta->stats,
                                             &delta->checksums);
    return dmi::ModelRegistry::Remodeled{std::move(model), delta->nodes_reused};
  };
  auto v2 = registry.Refresh("WordSim", "2", options, remodel);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_NE((*v2)->static_prompt(), old_prompt);

  dmi::ModelRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.delta_rips, 1u);
  EXPECT_GT(stats.delta_nodes_reused, 0u);
  // Save-through: the new version's artifact is on disk.
  EXPECT_TRUE(std::filesystem::exists(registry.ArtifactPath("WordSim", "2")));
  // Swap breadcrumb in the wired flight recorder.
  bool noted = false;
  for (const support::FlightEvent& event : recorder.Events()) {
    noted = noted || (event.kind == "note" && event.what.find("model swapped") != std::string::npos);
  }
  EXPECT_TRUE(noted);

  // Idempotent: refreshing onto an already-published version memo-hits.
  auto again = registry.Refresh("WordSim", "2", options, remodel);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), v2->get());
  EXPECT_EQ(registry.stats().delta_rips, 1u);

  // Zero-downtime: the old version's model is untouched while held...
  EXPECT_EQ(old_model->static_prompt(), old_prompt);
  v1->reset();
  baseline.reset();  // the test's own baseline ref; old_model remains
  EXPECT_EQ(registry.Prune("WordSim"), 0u);  // old_model still holds v1
  old_model.reset();
  EXPECT_EQ(registry.Prune("WordSim"), 1u);  // now unreferenced and superseded
  EXPECT_EQ(registry.stats().pruned, 1u);
  // The latest version survives pruning.
  v2->reset();
  EXPECT_EQ(registry.Prune("WordSim"), 0u);
  // ...and the pruned version is still cold-loadable from its artifact.
  auto reload = registry.Acquire("WordSim", "1", options, [&] {
    return support::Result<std::shared_ptr<const dmi::CompiledModel>>(
        support::InvalidArgumentError("must load, not compile"));
  });
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ((*reload)->static_prompt(), old_prompt);
}

TEST(ModelRegistrySwap, RunsResolveWhileARefreshRemodels) {
  // The registry lock covers resolving the baseline and publishing, not the
  // remodel: while a delta rip runs, other keys and the refreshing kind's
  // current model still resolve.
  const dmi::ModelingOptions options;
  const std::shared_ptr<const dmi::CompiledModel> v1 =
      dmi::CompiledModel::Compile(topo::NavGraph(), options);
  const std::shared_ptr<const dmi::CompiledModel> v2 =
      dmi::CompiledModel::Compile(topo::NavGraph(), options);
  auto compile = [&v1]() -> support::Result<std::shared_ptr<const dmi::CompiledModel>> {
    return v1;
  };
  dmi::ModelRegistry registry;
  ASSERT_TRUE(registry.Current("WordSim", options, compile).ok());

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  support::Result<std::shared_ptr<const dmi::CompiledModel>> refreshed =
      support::InternalError("not refreshed");
  std::thread refresher([&] {
    refreshed = registry.Refresh(
        "WordSim", "2", options,
        [&](const std::shared_ptr<const dmi::CompiledModel>& baseline)
            -> support::Result<dmi::ModelRegistry::Remodeled> {
          EXPECT_EQ(baseline.get(), v1.get());
          entered.set_value();
          released.wait();  // the latch: a delta rip that takes its time
          return dmi::ModelRegistry::Remodeled{v2, 0};
        });
  });
  if (entered.get_future().wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    release.set_value();
    refresher.join();
    FAIL() << "the remodel never started: " << refreshed.status().ToString();
  }
  auto other_key = std::async(std::launch::async, [&] {
    return registry.Acquire("ExcelSim", "1", options, compile);
  });
  auto current = std::async(std::launch::async, [&] {
    return registry.Current("WordSim", options, compile);
  });
  const auto deadline = std::chrono::milliseconds(500);
  EXPECT_EQ(other_key.wait_for(deadline), std::future_status::ready);
  EXPECT_EQ(current.wait_for(deadline), std::future_status::ready);
  release.set_value();
  refresher.join();

  const auto during = current.get();
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->get(), v1.get());  // the old build until the publish
  ASSERT_TRUE(other_key.get().ok());
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(refreshed->get(), v2.get());
  const auto after = registry.Current("WordSim", options, compile);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->get(), v2.get());
  EXPECT_EQ(registry.stats().delta_rips, 1u);
}

TEST(ModelRegistrySwap, ColdCompileDoesNotBlockOtherKeys) {
  // A cold compile (a full rip, about 0.3 s per app) runs outside the
  // registry lock: while one kind compiles, a warm kind's current model and
  // another key resolve, and a second resolver of the compiling key waits
  // for that compile instead of running its own.
  const dmi::ModelingOptions options;
  const std::shared_ptr<const dmi::CompiledModel> warm_model =
      dmi::CompiledModel::Compile(topo::NavGraph(), options);
  const std::shared_ptr<const dmi::CompiledModel> cold_model =
      dmi::CompiledModel::Compile(topo::NavGraph(), options);
  const std::shared_ptr<const dmi::CompiledModel> other_model =
      dmi::CompiledModel::Compile(topo::NavGraph(), options);
  using ModelResult = support::Result<std::shared_ptr<const dmi::CompiledModel>>;
  dmi::ModelRegistry registry;
  ASSERT_TRUE(registry.Current("ExcelSim", options, [&]() -> ModelResult {
    return warm_model;
  }).ok());

  std::atomic<int> cold_compiles{0};
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ModelResult cold = support::InternalError("not compiled");
  std::thread compiler([&] {
    cold = registry.Acquire("WordSim", "1", options, [&]() -> ModelResult {
      ++cold_compiles;
      entered.set_value();
      released.wait();  // the latch: a rip that takes its time
      return cold_model;
    });
  });
  if (entered.get_future().wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    release.set_value();
    compiler.join();
    FAIL() << "the compile never started: " << cold.status().ToString();
  }
  auto warm = std::async(std::launch::async, [&] {
    return registry.Current("ExcelSim", options, [&]() -> ModelResult {
      return support::InternalError("a warm kind must not compile");
    });
  });
  auto other_key = std::async(std::launch::async, [&] {
    return registry.Acquire("PpointSim", "1", options, [&]() -> ModelResult {
      return other_model;
    });
  });
  auto same_key = std::async(std::launch::async, [&] {
    return registry.Acquire("WordSim", "1", options, [&]() -> ModelResult {
      ++cold_compiles;
      return other_model;
    });
  });
  const auto deadline = std::chrono::milliseconds(500);
  EXPECT_EQ(warm.wait_for(deadline), std::future_status::ready);
  EXPECT_EQ(other_key.wait_for(deadline), std::future_status::ready);
  // The second resolver of the held key cannot finish before the compile.
  EXPECT_EQ(same_key.wait_for(std::chrono::milliseconds(50)), std::future_status::timeout);
  release.set_value();
  compiler.join();

  const auto during = warm.get();
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(during->get(), warm_model.get());
  const auto other = other_key.get();
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other->get(), other_model.get());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->get(), cold_model.get());
  const auto waited = same_key.get();
  ASSERT_TRUE(waited.ok()) << waited.status().ToString();
  EXPECT_EQ(waited->get(), cold_model.get());
  EXPECT_EQ(cold_compiles.load(), 1);
  const dmi::ModelRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.compiles, 3u);   // ExcelSim, PpointSim and WordSim, once each
  EXPECT_EQ(stats.memo_hits, 2u);  // the warm Current and the waiting Acquire
}

// ----- zero-downtime concurrent swap ----------------------------------------

std::vector<workload::Task> WordTasks() {
  std::vector<workload::Task> tasks;
  for (workload::Task& task : workload::BuildOsworldWSuite()) {
    if (task.app == workload::AppKind::kWord) {
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

RunConfig SwapConfig() {
  dmi::ServiceConfig service;
  service.mode = "dmi";
  service.policy = "harsh";
  service.workers = 4;
  service.repeats = 2;
  service.batch_size = 16;
  return agentsim::RunConfigFromService(service);
}

TEST(ConcurrentSwap, InFlightRunsFinishOnOldModelNewLeasesSeeNewBuild) {
  const std::vector<workload::Task> suite = WordTasks();
  ASSERT_GT(suite.size(), 4u);
  const RunConfig config = SwapConfig();

  // Reference: the same suite with no mid-flight swap. The swap mutation
  // below renames a control no task touches, so the robust result fields
  // must be unaffected by whether a run resolved the old or the new model.
  TaskRunner reference_runner;
  const SuiteResult reference = reference_runner.RunSuite(suite, config);

  TaskRunner runner;
  runner.SetModelDir(TempDirFor("delta_swap_store"), "1");
  support::FlightRecorder recorder(/*run_id=*/99, /*capacity=*/32);
  runner.mutable_model_registry()->SetFlightRecorder(&recorder);
  // Force the v1 model build, then grab its shared_ptr the way an in-flight
  // session would hold it.
  (void)runner.modeling_stats(workload::AppKind::kWord);
  auto held = runner.mutable_model_registry()->Acquire(
      "WordSim", "1", TaskRunner::DefaultModelingOptions(workload::AppKind::kWord), [] {
        return support::Result<std::shared_ptr<const dmi::CompiledModel>>(
            support::InvalidArgumentError("memo hit expected"));
      });
  ASSERT_TRUE(held.ok());
  const std::shared_ptr<const dmi::CompiledModel> old_model = *held;
  const std::string old_prompt = old_model->static_prompt();

  SuiteResult swapped;
  std::thread suite_thread([&] { swapped = runner.RunSuite(suite, config); });
  // Land the version swap mid-suite (timing is best-effort; every interleave
  // — before, during, after — must produce the same robust result).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  support::Status refreshed =
      runner.RefreshModel(workload::AppKind::kWord, "2", FactoryFor(RenameMenuEntry));
  suite_thread.join();
  ASSERT_TRUE(refreshed.ok()) << refreshed.ToString();

  // Zero-downtime: the old model stayed fully usable across the swap.
  EXPECT_EQ(old_model->static_prompt(), old_prompt);
  const dmi::ModelRegistry::Stats stats = runner.model_registry()->stats();
  EXPECT_EQ(stats.delta_rips, 1u);
  EXPECT_GT(stats.delta_nodes_reused, 0u);

  // New leases construct the updated build (the pool factory was swapped).
  workload::AppPool::Lease lease = runner.app_pool().Acquire(suite.front());
  ASSERT_TRUE(static_cast<bool>(lease));
  EXPECT_NE(FindControl(lease->main_window().root(), "Manage Sources (Legacy)"), nullptr);
  EXPECT_EQ(FindControl(lease->main_window().root(), "Manage Sources"), nullptr);
  lease.Release();

  // And new model resolutions see version 2.
  EXPECT_NE(runner.modeling_stats(workload::AppKind::kWord).core_tokens, 0u);

  // Robust suite fields are deterministic across the swap: every (task,
  // trial) is independently seeded and the mutation is behaviorally
  // compatible, so success and failure shape match the unswapped reference.
  EXPECT_EQ(swapped.TotalRuns(), reference.TotalRuns());
  EXPECT_EQ(swapped.SuccessRate(), reference.SuccessRate());
  EXPECT_EQ(swapped.SolvedTasks(), reference.SolvedTasks());
  EXPECT_EQ(swapped.FailureDistribution(), reference.FailureDistribution());
}

}  // namespace
