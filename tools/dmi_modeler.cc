// dmi_modeler: command-line offline modeler.
//
// Rips one of the bundled applications into a UI Navigation Graph, runs the
// decycle/externalize pipeline, prints the modeling statistics, and saves
// the model as a binary artifact (rip once, load everywhere, DESIGN.md §14).
//
// Usage:
//   dmi_modeler --app word|excel|ppoint [--out model.dmim] [--app-version V]
//               [--threshold N] [--depth N] [--print-core]
//   dmi_modeler --inspect model.dmim
//   dmi_modeler --diff old.dmim new.dmim   (exit 1 when the models differ)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "src/agent/task_runner.h"
#include "src/apps/excel_sim.h"
#include "src/apps/ppoint_sim.h"
#include "src/apps/word_sim.h"
#include "src/dmi/compiled_model.h"
#include "src/dmi/model_artifact.h"
#include "src/ripper/ripper.h"

namespace {

void Usage() {
  std::printf(
      "usage: dmi_modeler --app word|excel|ppoint [--out model.dmim]\n"
      "                   [--app-version V] [--threshold N] [--depth N] [--print-core]\n"
      "       dmi_modeler --inspect model.dmim\n"
      "       dmi_modeler --diff old.dmim new.dmim\n");
}

std::unique_ptr<gsim::Application> MakeApp(const std::string& name,
                                           workload::AppKind* kind) {
  if (name == "word") {
    *kind = workload::AppKind::kWord;
    return std::make_unique<apps::WordSim>();
  }
  if (name == "excel") {
    *kind = workload::AppKind::kExcel;
    return std::make_unique<apps::ExcelSim>();
  }
  if (name == "ppoint") {
    *kind = workload::AppKind::kPpoint;
    return std::make_unique<apps::PpointSim>();
  }
  return nullptr;
}

int Inspect(const std::string& path) {
  support::Result<dmi::ArtifactInfo> info = dmi::InspectModelArtifact(path);
  if (!info.ok()) {
    std::fprintf(stderr, "inspect failed: %s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: format v%u, app %s-%s, payload %llu bytes, checksum %016llx (%s)\n",
              path.c_str(), info->format_version, info->meta.app_kind.c_str(),
              info->meta.app_version.c_str(),
              static_cast<unsigned long long>(info->payload_bytes),
              static_cast<unsigned long long>(info->stored_checksum),
              info->checksum_ok ? "ok" : "MISMATCH");
  for (const dmi::ArtifactSectionInfo& section : info->sections) {
    std::printf("  %-8s %8llu items %10llu bytes\n", section.name.c_str(),
                static_cast<unsigned long long>(section.items),
                static_cast<unsigned long long>(section.bytes));
  }
  return info->checksum_ok ? 0 : 1;
}

// Structural diff of two model artifacts: which UI partitions changed
// between the app builds, plus the token-cost movement. Exit 0 = identical,
// 1 = differ, 2 = unreadable.
int Diff(const std::string& old_path, const std::string& new_path) {
  const dmi::ModelingOptions runtime;  // compile-time params come from the artifacts
  support::Result<dmi::LoadedModelArtifact> old_loaded =
      dmi::LoadModelArtifact(old_path, runtime);
  if (!old_loaded.ok()) {
    std::fprintf(stderr, "diff: %s\n", old_loaded.status().ToString().c_str());
    return 2;
  }
  support::Result<dmi::LoadedModelArtifact> new_loaded =
      dmi::LoadModelArtifact(new_path, runtime);
  if (!new_loaded.ok()) {
    std::fprintf(stderr, "diff: %s\n", new_loaded.status().ToString().c_str());
    return 2;
  }
  const dmi::CompiledModel& old_model = *old_loaded->model;
  const dmi::CompiledModel& new_model = *new_loaded->model;
  std::printf("old: %s (%s-%s)\nnew: %s (%s-%s)\n", old_path.c_str(),
              old_loaded->meta.app_kind.c_str(), old_loaded->meta.app_version.c_str(),
              new_path.c_str(), new_loaded->meta.app_kind.c_str(),
              new_loaded->meta.app_version.c_str());

  const ripper::ChecksumTable& old_table = old_model.subtree_checksums();
  const ripper::ChecksumTable& new_table = new_model.subtree_checksums();
  const bool have_tables = !old_table.empty() && !new_table.empty();
  bool differ = false;
  if (!have_tables) {
    std::printf("(no checksum table — partition diff unavailable, "
                "comparing serialized topologies)\n");
    differ = old_model.catalog().FullText() != new_model.catalog().FullText();
  } else {
    auto digest_of = [](const ripper::ChecksumTable& table,
                        const std::string& key) -> unsigned long long {
      for (const ripper::SubtreeChecksum& entry : table) {
        if (entry.key == key) {
          return entry.checksum;
        }
      }
      return 0;
    };
    const ripper::ChecksumDiff diff = ripper::DiffChecksumTables(old_table, new_table);
    for (const std::string& key : diff.changed) {
      std::printf("  ~ %-40s %016llx -> %016llx\n", key.c_str(), digest_of(old_table, key),
                  digest_of(new_table, key));
    }
    for (const std::string& key : diff.added) {
      std::printf("  + %-40s %16s -> %016llx\n", key.c_str(), "", digest_of(new_table, key));
    }
    for (const std::string& key : diff.removed) {
      std::printf("  - %-40s %016llx ->\n", key.c_str(), digest_of(old_table, key));
    }
    std::printf("%zu partitions: %zu changed, %zu added, %zu removed\n", new_table.size(),
                diff.changed.size(), diff.added.size(), diff.removed.size());
    differ = !diff.Empty();
  }

  const dmi::ModelingStats& old_stats = old_model.stats();
  const dmi::ModelingStats& new_stats = new_model.stats();
  auto delta = [](size_t old_value, size_t new_value) {
    return static_cast<long long>(new_value) - static_cast<long long>(old_value);
  };
  std::printf("tokens: core %zu -> %zu (%+lld), full %zu -> %zu (%+lld), "
              "static prompt %zu -> %zu (%+lld)\n",
              old_stats.core_tokens, new_stats.core_tokens,
              delta(old_stats.core_tokens, new_stats.core_tokens), old_stats.full_tokens,
              new_stats.full_tokens, delta(old_stats.full_tokens, new_stats.full_tokens),
              old_model.static_prompt_tokens(), new_model.static_prompt_tokens(),
              delta(old_model.static_prompt_tokens(), new_model.static_prompt_tokens()));
  differ = differ || old_stats.core_tokens != new_stats.core_tokens ||
           old_stats.full_tokens != new_stats.full_tokens ||
           old_model.static_prompt() != new_model.static_prompt();
  std::printf("%s\n", differ ? "models differ" : "models identical");
  return differ ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name;
  std::string out_path;
  std::string app_version = "1";
  std::string inspect_path;
  std::string diff_old;
  std::string diff_new;
  uint64_t threshold = topo::kDefaultExternalizeThreshold;
  int depth = desc::PruneOptions{}.max_depth;
  bool print_core = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--app") {
      app_name = next("--app");
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--app-version") {
      app_version = next("--app-version");
    } else if (arg == "--inspect") {
      inspect_path = next("--inspect");
    } else if (arg == "--diff") {
      diff_old = next("--diff");
      diff_new = next("--diff");
    } else if (arg == "--threshold") {
      threshold = static_cast<uint64_t>(std::strtoull(next("--threshold"), nullptr, 10));
    } else if (arg == "--depth") {
      depth = std::atoi(next("--depth"));
    } else if (arg == "--print-core") {
      print_core = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (!inspect_path.empty()) {
    return Inspect(inspect_path);
  }
  if (!diff_old.empty()) {
    return Diff(diff_old, diff_new);
  }

  workload::AppKind kind;
  std::unique_ptr<gsim::Application> scratch = MakeApp(app_name, &kind);
  if (scratch == nullptr) {
    Usage();
    return 2;
  }

  dmi::ModelingOptions options = agentsim::TaskRunner::DefaultModelingOptions(kind);
  options.externalize_threshold = threshold;
  options.prune.max_depth = depth;

  std::printf("ripping %s ...\n", app_name.c_str());
  // Taken on the pristine instance: the saved artifact doubles as a
  // delta-rip baseline (DESIGN.md §15).
  const ripper::ChecksumTable checksums = ripper::ComputeSubtreeChecksums(*scratch);
  ripper::GuiRipper rip(*scratch, options.ripper_config);
  // Canonical layout, like the runner's pipeline: artifacts written here
  // must line up node-for-node as delta-rip baselines.
  topo::NavGraph graph = rip.Rip(options.contexts).Canonicalized();
  const ripper::RipStats& rip_stats = rip.stats();
  std::printf("  %zu controls, %zu edges | %llu clicks, %llu captures, %llu explored, "
              "%.1f min simulated UIA time\n",
              graph.node_count(), graph.edge_count(),
              static_cast<unsigned long long>(rip_stats.clicks),
              static_cast<unsigned long long>(rip_stats.captures),
              static_cast<unsigned long long>(rip_stats.explored),
              rip_stats.simulated_ms / 60000.0);

  std::shared_ptr<const dmi::CompiledModel> model =
      dmi::CompiledModel::Compile(std::move(graph), options, &rip_stats, &checksums);
  const dmi::ModelingStats& s = model->stats();
  std::printf("pipeline: %zu back-edges removed | forest %zu nodes, %zu shared subtrees, "
              "%zu refs | core %zu nodes / %zu tokens (full %zu tokens)\n",
              s.back_edges_removed, s.forest_nodes, s.shared_subtrees, s.references,
              s.core_nodes, s.core_tokens, s.full_tokens);

  if (print_core) {
    std::printf("\n%s\n", model->catalog().CoreText().c_str());
  }
  if (!out_path.empty()) {
    // SaveModelArtifact creates the store directory if it is missing.
    dmi::ArtifactMeta meta{workload::AppKindName(kind), app_version};
    support::Status st = dmi::SaveModelArtifact(*model, meta, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("model artifact saved to %s (%s-%s)\n", out_path.c_str(),
                meta.app_kind.c_str(), meta.app_version.c_str());
  }
  return 0;
}
