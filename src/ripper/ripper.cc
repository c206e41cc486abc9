#include "src/ripper/ripper.h"

#include <deque>
#include <unordered_map>
#include <utility>

#include "src/support/logging.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace ripper {
namespace {

// Simulated real-world latencies (milliseconds) for cost accounting; see
// RipStats::simulated_ms.
constexpr double kClickMs = 120.0;
constexpr double kCaptureMs = 80.0;
constexpr double kExternalRecoveryMs = 30000.0;

// One DFS work item: a control to explore and the click path that reveals it.
struct WorkItem {
  std::string control_id;
  std::vector<std::string> path;  // control ids to click, in order
};

}  // namespace

GuiRipper::GuiRipper(gsim::Application& app, RipperConfig config)
    : app_(&app), config_(std::move(config)) {
  // Window listener (§4.1): new top-level/modal windows are surfaced as
  // events; the explorer counts them (captures pick up their contents).
  app_->AddWindowListener([this](gsim::Window&, bool) { ++stats_.window_events; });
}

GuiRipper::~GuiRipper() {
  if (stats_.clicks != 0) {
    support::CountMetric("rip.clicks", stats_.clicks);
  }
  if (stats_.captures != 0) {
    support::CountMetric("rip.captures", stats_.captures);
  }
  if (stats_.explored != 0) {
    support::CountMetric("rip.explored", stats_.explored);
  }
  if (stats_.external_recoveries != 0) {
    support::CountMetric("rip.external_recoveries", stats_.external_recoveries);
  }
  if (stats_.capture_rebuilds != 0) {
    support::CountMetric("rip.capture_rebuilds", stats_.capture_rebuilds);
  }
  if (stats_.capture_cache_hits != 0) {
    support::CountMetric("rip.capture_cache_hits", stats_.capture_cache_hits);
  }
  if (stats_.indexed_lookups != 0) {
    support::CountMetric("rip.indexed_lookups", stats_.indexed_lookups);
  }
}

std::span<const gsim::CaptureEntry> GuiRipper::CaptureVisible() {
  ++stats_.captures;
  stats_.simulated_ms += kCaptureMs;
  bool rebuilt = false;
  const std::span<const gsim::CaptureEntry> entries = app_->capture().Visible(&rebuilt);
  if (rebuilt) {
    ++stats_.capture_rebuilds;
  } else {
    ++stats_.capture_cache_hits;
  }
  return entries;
}

bool GuiRipper::IsExplorable(const gsim::Control& control) const {
  if (config_.blocklist.count(control.TrueName()) > 0) {
    return false;
  }
  switch (control.Type()) {
    case uia::ControlType::kButton:
    case uia::ControlType::kMenuItem:
    case uia::ControlType::kTabItem:
    case uia::ControlType::kSplitButton:
    case uia::ControlType::kListItem:
    case uia::ControlType::kCheckBox:
    case uia::ControlType::kComboBox:
    case uia::ControlType::kRadioButton:
    case uia::ControlType::kHyperlink:
      return true;
    default:
      return false;  // content (DataItem, Text, Edit, ...) is not navigation
  }
}

topo::NodeInfo GuiRipper::MakeNodeInfo(const gsim::CaptureEntry& entry) const {
  const gsim::Control& control = *entry.control;
  topo::NodeInfo info;
  info.control_id = entry.control_id;  // already synthesized at capture time
  info.name = control.TrueName();
  info.type = control.Type();
  info.description = control.HelpText();
  info.automation_id = control.AutomationId();
  return info;
}

gsim::Control* GuiRipper::FindVisibleById(const std::string& control_id, bool ensure_fresh) {
  ++stats_.indexed_lookups;
  if (ensure_fresh) {
    bool rebuilt = false;
    gsim::Control* found = app_->capture().FindByIdEnsureFresh(control_id, &rebuilt);
    if (rebuilt) {
      ++stats_.capture_rebuilds;
    }
    return found;
  }
  // FindById never rebuilds: warm generations probe, stale ones cold-walk.
  return app_->capture().FindById(control_id);
}

void GuiRipper::AddRevealedEdges(topo::NavGraph& graph, int from_node,
                                 std::span<const gsim::CaptureEntry* const> fresh) {
  // Index the fresh set by element pointer so containment can be checked and
  // the already-synthesized id of a fresh ancestor can be reused.
  std::unordered_map<const gsim::Control*, const std::string*> fresh_ids;
  fresh_ids.reserve(fresh.size());
  for (const gsim::CaptureEntry* e : fresh) {
    fresh_ids.emplace(e->control, &e->control_id);
  }
  // First materialize all nodes, then wire edges. A control seen before
  // keeps its node, so only a new one pays for its NodeInfo.
  for (const gsim::CaptureEntry* e : fresh) {
    if (graph.FindNode(e->control_id) < 0) {
      graph.AddNode(MakeNodeInfo(*e));
    }
  }
  for (const gsim::CaptureEntry* e : fresh) {
    const int node = graph.FindNode(e->control_id);
    // Walk up the accessibility parent chain to the nearest *also fresh*
    // ancestor; containment edge from it. Without one, this element roots a
    // revealed subtree: the click points at it.
    const std::string* parent_id = nullptr;
    for (const uia::Element* p = e->control->Parent(); p != nullptr; p = p->Parent()) {
      auto it = fresh_ids.find(static_cast<const gsim::Control*>(p));
      if (it != fresh_ids.end()) {
        parent_id = it->second;
        break;
      }
    }
    if (parent_id != nullptr) {
      graph.AddEdge(graph.FindNode(*parent_id), node);
    } else {
      graph.AddEdge(from_node, node);
    }
  }
}

void GuiRipper::SnapshotIds(std::span<const gsim::CaptureEntry> capture) {
  before_arena_.clear();
  for (const gsim::CaptureEntry& e : capture) {
    before_arena_ += e.control_id;
  }
  // The views are taken once the arena has stopped growing.
  before_ids_.Clear();
  size_t begin = 0;
  for (const gsim::CaptureEntry& e : capture) {
    before_ids_.Add(std::string_view(before_arena_).substr(begin, e.control_id.size()));
    begin += e.control_id.size();
  }
  before_ids_.Build();
}

bool GuiRipper::ReplayPath(const std::vector<std::string>& path, const RipContext& context) {
  app_->ResetUiState();
  if (context.setup) {
    context.setup(*app_);
  }
  for (const std::string& step : path) {
    gsim::Control* control = FindVisibleById(step);
    if (control == nullptr) {
      return false;
    }
    ++stats_.clicks;
    stats_.simulated_ms += kClickMs;
    if (!app_->Click(*control).ok()) {
      return false;
    }
    if (app_->in_external_state()) {
      // A blocklist miss: the app left; recover expensively.
      ++stats_.external_recoveries;
      stats_.simulated_ms += kExternalRecoveryMs;
      app_->ResetUiState();
      return false;
    }
  }
  return true;
}

void GuiRipper::RipContextInternal(topo::NavGraph& graph, const RipContext& context) {
  support::TraceSpan span("rip.context", "rip");
  span.AddArg("context", context.name);
  const int64_t context_start_us = support::TraceNowUs();
  ++stats_.contexts;
  app_->ResetUiState();
  if (context.setup) {
    context.setup(*app_);
  }

  // Root-node initialization (§4.1): the initial screen attaches beneath the
  // virtual root. Edges follow the revealed hierarchy — the click (here: the
  // virtual root) points at the roots of newly revealed subtrees; within a
  // revealed subtree, parent-child containment forms the edges. This
  // reconstructs the deep navigation structure (Figure 4's merge-node
  // substructures) instead of a flat fan-out; controls under the active tab's
  // panel automatically scope beneath that TabItem via containment.
  // The capture span stays valid here: nothing mutates the UI between the
  // capture and its uses.
  const std::span<const gsim::CaptureEntry> initial = CaptureVisible();
  std::deque<WorkItem> work;
  fresh_.clear();
  for (const gsim::CaptureEntry& entry : initial) {
    fresh_.push_back(&entry);
  }
  AddRevealedEdges(graph, topo::NavGraph::kRootIndex, fresh_);
  for (const auto& entry : initial) {
    if (!IsExplorable(*entry.control) || explored_.count(entry.control_id) > 0) {
      continue;
    }
    if (config_.seed_filter && !config_.seed_filter(*entry.control, entry.control_id)) {
      continue;  // out-of-scope region (delta rip); never entered
    }
    work.push_back(WorkItem{entry.control_id, {}});
  }

  // DFS (stack discipline via front-insertion).
  while (!work.empty() && explored_.size() < config_.max_explored) {
    WorkItem item = std::move(work.front());
    work.pop_front();
    if (explored_.count(item.control_id) > 0) {
      continue;
    }
    explored_.insert(item.control_id);
    ++stats_.explored;

    if (!ReplayPath(item.path, context)) {
      continue;  // state drifted; skip this branch
    }
    // The pre-click capture of this same state follows immediately, so let
    // this lookup build the id capture and the capture comes for free.
    gsim::Control* target = FindVisibleById(item.control_id, /*ensure_fresh=*/true);
    if (target == nullptr) {
      continue;
    }
    // Snapshot only the id *set* of the pre-click capture — the entry buffer
    // itself is recycled by the post-click capture.
    SnapshotIds(CaptureVisible());
    ++stats_.clicks;
    stats_.simulated_ms += kClickMs;
    if (!app_->Click(*target).ok()) {
      continue;
    }
    if (app_->in_external_state()) {
      ++stats_.external_recoveries;
      stats_.simulated_ms += kExternalRecoveryMs;
      app_->ResetUiState();
      continue;
    }
    const std::span<const gsim::CaptureEntry> after = CaptureVisible();

    const int from_node = graph.FindNode(item.control_id);
    if (from_node < 0) {
      continue;  // should not happen: node added when first seen
    }
    std::vector<std::string> next_path = std::move(item.path);
    next_path.push_back(std::move(item.control_id));
    const int next_depth = static_cast<int>(next_path.size());

    fresh_.clear();
    for (const gsim::CaptureEntry& e : after) {
      if (before_ids_.Find(e.control_id) == gsim::IdTable::kNone) {
        fresh_.push_back(&e);
      }
    }
    AddRevealedEdges(graph, from_node, fresh_);
    for (const gsim::CaptureEntry* e : fresh_) {
      if (next_depth <= config_.max_depth && IsExplorable(*e->control) &&
          explored_.count(e->control_id) == 0) {
        work.push_front(WorkItem{e->control_id, next_path});
      }
    }
  }
  app_->ResetUiState();
  support::ObserveMetric("rip.context_ms",
                         static_cast<double>(support::TraceNowUs() - context_start_us) / 1000.0);
}

topo::NavGraph GuiRipper::Rip(const std::vector<RipContext>& extra_contexts) {
  support::TraceSpan span("rip.rip", "rip");
  span.AddArg("contexts", static_cast<int64_t>(extra_contexts.size() + 1));
  topo::NavGraph graph;
  RipContext default_context;
  default_context.name = "default";
  RipContextInternal(graph, default_context);
  for (const RipContext& context : extra_contexts) {
    RipContextInternal(graph, context);
  }
  DMI_LOG(kInfo) << "ripped " << graph.node_count() << " controls, " << graph.edge_count()
                 << " edges in " << stats_.explored << " explorations";
  return graph;
}

}  // namespace ripper
