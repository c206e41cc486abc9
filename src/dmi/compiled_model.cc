#include "src/dmi/compiled_model.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/describe/augment.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"
#include "src/text/tokens.h"

namespace dmi {
namespace {

constexpr char kUsageHint[] =
    "# DMI usage\n"
    "Prefer DMI. visit([...]) accesses target controls by id; declare only\n"
    "functional (leaf) targets — DMI performs all navigation. Targets inside\n"
    "shared subtrees need entry_ref_id. {\"id\",\"text\"} types into an edit.\n"
    "{\"shortcut_key\"} is auxiliary (e.g. ENTER to commit). further_query(id|-1)\n"
    "fetches more topology and cannot be mixed with other commands. For\n"
    "composite interactions use state declarations (set_scrollbar_pos,\n"
    "select_lines, select_paragraphs, select_controls, set_toggle_state) and\n"
    "observation (get_texts) on current-screen labels, never topology ids.\n";

// The DAG node name of the forest node with this (assigned) id.
const std::string& NodeName(const desc::TopologyCatalog& catalog, int id) {
  return catalog.dag().node(catalog.forest().FindById(id)->graph_index).name;
}

}  // namespace

const std::string& CompiledModel::UsageHint() {
  static const std::string hint = kUsageHint;
  return hint;
}

std::shared_ptr<const CompiledModel> CompiledModel::Compile(topo::NavGraph graph,
                                                            const ModelingOptions& options,
                                                            const ripper::RipStats* rip,
                                                            const ripper::ChecksumTable* checksums) {
  support::TraceSpan span("model.build", "model");
  const int64_t build_start_us = support::TraceNowUs();
  auto model = std::shared_ptr<CompiledModel>(new CompiledModel());
  model->options_ = options;
  if (checksums != nullptr) {
    model->subtree_checksums_ = *checksums;
  }
  ModelingStats& stats = model->stats_;
  if (rip != nullptr) {
    stats.rip = *rip;
  }
  model->ripped_ = std::move(graph);
  // Augmentation is the only pipeline stage that mutates the graph; the
  // model keeps the graph as ripped, so the copy is taken only when needed.
  const topo::NavGraph* source = &model->ripped_;
  topo::NavGraph augmented;
  if (options.augment_descriptions) {
    augmented = model->ripped_;
    (void)desc::AugmentDescriptions(augmented, desc::BuiltinAugmentRules());
    source = &augmented;
  }
  stats.raw = source->ComputeStats();
  topo::DecycleResult decycled = topo::Decycle(*source);
  stats.back_edges_removed = decycled.removed_back_edges;
  stats.unreachable_dropped = decycled.unreachable_dropped;
  model->dag_ = std::make_unique<topo::NavGraph>(std::move(decycled.dag));
  topo::Forest forest = topo::SelectiveExternalize(*model->dag_, options.externalize_threshold);
  stats.forest_nodes = forest.total_nodes();
  stats.shared_subtrees = forest.shared().size();
  stats.references = forest.reference_count();
  model->catalog_ = std::make_unique<desc::TopologyCatalog>(
      model->dag_.get(), std::move(forest), options.prune, options.describe);
  stats.core_nodes = model->catalog_->core_stats().kept;
  stats.core_tokens = model->catalog_->CoreTokens();
  stats.full_tokens = model->catalog_->FullTokens();
  // The name index. The ids go in ascending, and a stable sort by name keeps
  // them ascending within each name, the order the resolver's first-wins
  // tie-break relies on.
  const desc::TopologyCatalog& catalog = *model->catalog_;
  model->ids_by_name_.reserve(static_cast<size_t>(catalog.forest().max_id()));
  for (int id = 1; id <= catalog.forest().max_id(); ++id) {
    const topo::TreeNode* node = catalog.forest().FindById(id);
    if (node != nullptr && !node->is_reference) {
      model->ids_by_name_.push_back(id);
    }
  }
  std::ranges::stable_sort(model->ids_by_name_, std::less<>{},
                           [&catalog](int id) -> const std::string& {
                             return NodeName(catalog, id);
                           });
  model->usage_hint_tokens_ = textutil::CountTokens(UsageHint());
  // The shared static prompt segment: assembled and counted exactly once per
  // compiled model. The hint ends in a newline, so the segment-summed count
  // equals the concatenation's count (see textutil::CountTokensAppend).
  const std::string& core = model->catalog_->CoreText();
  model->static_prompt_.reserve(UsageHint().size() + core.size());
  model->static_prompt_ = UsageHint();
  model->static_prompt_ += core;
  model->static_prompt_tokens_ = model->usage_hint_tokens_ + model->catalog_->CoreTokens();
  // Mirror the modeling summary onto the registry (ModelingStats remains the
  // per-model record; the registry is the process-wide aggregate).
  support::CountMetric("model.builds");
  support::CountMetric("session.compile_builds");
  support::CountMetric("model.raw_nodes", stats.raw.nodes);
  support::CountMetric("model.core_nodes", stats.core_nodes);
  support::CountMetric("model.core_tokens", stats.core_tokens);
  support::CountMetric("model.full_tokens", stats.full_tokens);
  support::ObserveMetric("model.build_ms",
                         static_cast<double>(support::TraceNowUs() - build_start_us) / 1000.0);
  span.AddArg("core_nodes", static_cast<int64_t>(stats.core_nodes));
  span.AddArg("core_tokens", static_cast<int64_t>(stats.core_tokens));
  return model;
}

support::Result<ResolvedTarget> CompiledModel::ResolveTargetByNames(
    const std::vector<std::string>& names) const {
  support::CountMetric("describe.resolve_calls");
  if (names.empty()) {
    return support::InvalidArgumentError("empty name chain");
  }
  const topo::Forest& forest = catalog_->forest();
  const topo::NavGraph& dag = *dag_;

  // Direct references pointing at a shared subtree come from the forest's
  // precomputed reverse-reference index (built at SelectiveExternalize time)
  // instead of rescanning every tree per candidate.

  // Builds a full ref chain starting from one direct ref (greedy upward).
  auto chain_for = [&](int ref) -> std::vector<int> {
    std::vector<int> chain = {ref};
    int cursor = ref;
    for (int hop = 0; hop < 16; ++hop) {
      auto loc = forest.LocateById(cursor);
      if (!loc.ok() || loc->tree < 0) {
        return chain;
      }
      const std::vector<int>& outer = forest.RefsTo(loc->tree);
      if (outer.empty()) {
        return {};
      }
      chain.push_back(outer[0]);
      cursor = outer[0];
    }
    return {};
  };

  // Ordered-subsequence match of `names` against a path's node names.
  auto matches = [&](const std::vector<int>& path) {
    size_t want = 0;
    for (int node : path) {
      if (want < names.size() && dag.node(node).name == names[want]) {
        ++want;
      }
    }
    return want == names.size();
  };

  // The candidates: every non-reference node named names.back(), ascending
  // by id, straight from the name index.
  const auto candidates = std::ranges::equal_range(
      ids_by_name_, names.back(), std::less<>{},
      [this](int id) -> const std::string& { return NodeName(*catalog_, id); });
  ResolvedTarget best;
  int best_path_len = INT32_MAX;
  for (int id : candidates) {
    auto loc = forest.LocateById(id);
    std::vector<std::vector<int>> ref_options;
    if (loc->tree < 0) {
      ref_options.push_back({});
    } else {
      for (int ref : forest.RefsTo(loc->tree)) {
        std::vector<int> chain = chain_for(ref);
        if (!chain.empty()) {
          ref_options.push_back(std::move(chain));
        }
      }
    }
    for (const std::vector<int>& refs : ref_options) {
      auto path = forest.ResolvePath(id, refs);
      if (!path.ok() || !matches(*path)) {
        continue;
      }
      if (static_cast<int>(path->size()) < best_path_len) {
        best_path_len = static_cast<int>(path->size());
        best.id = id;
        best.entry_ref_ids = refs;
      }
    }
  }
  support::ObserveMetric("describe.resolve_candidates", static_cast<double>(candidates.size()));
  if (best.id < 0) {
    return support::NotFoundError("no control matches the name chain ending in '" +
                                  names.back() + "'");
  }
  return best;
}

}  // namespace dmi
