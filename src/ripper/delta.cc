#include "src/ripper/delta.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/ripper/identifier.h"

namespace ripper {
namespace {

// Field-class markers keep adjacent variable-length fields from aliasing
// (same guard the UiaStateChecksum walk uses).
constexpr uint64_t kMarkOwn = 0x01;
constexpr uint64_t kMarkChildren = 0x02;
constexpr uint64_t kMarkOwnedPopup = 0x03;
constexpr uint64_t kMarkSharedPopup = 0x04;
constexpr uint64_t kMarkDialog = 0x05;
constexpr uint64_t kMarkReveal = 0x06;
constexpr uint64_t kMarkCycle = 0x07;
constexpr uint64_t kMarkAbsent = 0x08;

constexpr std::string_view kWindowPrefix = "window:";
constexpr std::string_view kMainPrefix = "main:";
constexpr std::string_view kDialogPrefix = "dialog:";
constexpr std::string_view kSharedPrefix = "shared:";

bool HasPrefix(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() && std::string_view(s).substr(0, prefix.size()) == prefix;
}

// Mixes the control's own static fields (never children/popups — those are
// closure concerns handled by the walker). Runtime ids and generations are
// deliberately excluded: digests must be equal across app instances.
void MixOwnFields(gsim::StateHash& h, const gsim::Control& c) {
  h.MixU64(kMarkOwn);
  h.Mix(c.TrueName());
  h.MixU64(static_cast<uint64_t>(c.Type()));
  h.Mix(c.AutomationId());
  h.Mix(c.HelpText());
  h.MixBool(c.IsEnabled());
  h.MixBool(c.forced_offscreen());
  h.MixU64(static_cast<uint64_t>(c.click_effect()));
  h.Mix(c.command());
  h.Mix(c.dialog_id());
  h.MixU64(static_cast<uint64_t>(c.close_disposition()));
  h.MixBool(c.popup_persistent());
  h.MixBool(c.floating());
  h.MixBool(c.popup_open());
  h.MixBool(c.toggled());
  h.MixBool(c.selected());
  h.Mix(c.text_value());
  h.MixDouble(c.range_value());
  h.MixDouble(c.range_min());
  h.MixDouble(c.range_max());
  const gsim::Rect r = c.rect();
  h.MixU64(static_cast<uint64_t>(static_cast<int64_t>(r.x)));
  h.MixU64(static_cast<uint64_t>(static_cast<int64_t>(r.y)));
  h.MixU64(static_cast<uint64_t>(static_cast<int64_t>(r.width)));
  h.MixU64(static_cast<uint64_t>(static_cast<int64_t>(r.height)));
}

// Closure digest walker. DigestOf(c) is a pure function of the static
// structure reachable from `c` (children, owned popups, shared popups,
// dialog targets, reveal targets); memoized per control. Digests computed
// inside a reference cycle are entry-point dependent, so they are marked
// tainted and never memoized — every caller then recomputes from its own
// root, keeping results deterministic.
class DigestWalker {
 public:
  explicit DigestWalker(gsim::Application& app) : app_(&app) {}

  uint64_t DigestOf(const gsim::Control& c) {
    bool tainted = false;
    return Walk(c, &tainted);
  }

 private:
  uint64_t Walk(const gsim::Control& c, bool* tainted) {
    auto memo_it = memo_.find(&c);
    if (memo_it != memo_.end()) {
      return memo_it->second;
    }
    if (in_progress_.count(&c) > 0) {
      *tainted = true;
      gsim::StateHash cycle;
      cycle.MixU64(kMarkCycle);
      cycle.Mix(c.TrueName());
      return cycle.digest();
    }
    in_progress_.insert(&c);
    bool local_taint = false;
    gsim::StateHash h;
    MixOwnFields(h, c);

    const std::vector<gsim::Control*>& children = c.StaticChildren();
    h.MixU64(kMarkChildren);
    h.MixU64(children.size());
    for (const gsim::Control* child : children) {
      h.MixU64(Walk(*child, &local_taint));
    }

    if (const gsim::Control* popup = c.popup()) {
      // Shared subtrees are registered floating; owned popups are not.
      h.MixU64(popup->floating() ? kMarkSharedPopup : kMarkOwnedPopup);
      h.MixU64(Walk(*popup, &local_taint));
    }
    if (!c.dialog_id().empty()) {
      h.MixU64(kMarkDialog);
      h.Mix(c.dialog_id());
      if (const gsim::Window* dialog = app_->FindDialog(c.dialog_id())) {
        h.MixU64(Walk(dialog->root(), &local_taint));
      } else {
        h.MixU64(kMarkAbsent);
      }
    }
    if (const gsim::Control* target = c.reveal_target()) {
      h.MixU64(kMarkReveal);
      h.MixU64(Walk(*target, &local_taint));
    }

    in_progress_.erase(&c);
    const uint64_t digest = h.digest();
    if (!local_taint) {
      memo_.emplace(&c, digest);
    } else {
      *tainted = true;
    }
    return digest;
  }

  gsim::Application* app_;
  std::unordered_map<const gsim::Control*, uint64_t> memo_;
  std::unordered_set<const gsim::Control*> in_progress_;
};

// Inserts key->digest; duplicate keys (two dialogs sharing a root name)
// fold together deterministically in insertion order.
void Insert(std::map<std::string, uint64_t>& table, const std::string& key, uint64_t digest) {
  auto [it, inserted] = table.emplace(key, digest);
  if (!inserted) {
    gsim::StateHash h;
    h.MixU64(it->second);
    h.MixU64(digest);
    it->second = h.digest();
  }
}

// ----- region mapping --------------------------------------------------------
//
// Maps a graph node (or a live seed control) onto the checksum key of the
// partition that owns it, using its ancestor path. Nodes of an expanded tab
// strip scope under "main:<strip>/<tab>"; dialog and shared-subtree interiors
// scope under their root's satellite key.

struct RegionScheme {
  std::string window_name;
  std::set<std::string> strips;        // tab-strip child names (expanded)
  std::set<std::string> dialog_roots;  // dialog root control names
  std::set<std::string> shared_roots;  // shared subtree root names
};

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= path.size() && !path.empty()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) {
      parts.push_back(path.substr(start));
      break;
    }
    parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  return parts;
}

RegionScheme BuildScheme(const ChecksumTable& baseline, const ChecksumTable& fresh) {
  RegionScheme scheme;
  auto absorb = [&scheme](const ChecksumTable& table) {
    for (const SubtreeChecksum& entry : table) {
      if (HasPrefix(entry.key, kWindowPrefix)) {
        scheme.window_name = entry.key.substr(kWindowPrefix.size());
      } else if (HasPrefix(entry.key, kMainPrefix)) {
        const std::string suffix = entry.key.substr(kMainPrefix.size());
        const size_t slash = suffix.find('/');
        if (slash != std::string::npos) {
          scheme.strips.insert(suffix.substr(0, slash));
        }
      } else if (HasPrefix(entry.key, kDialogPrefix)) {
        scheme.dialog_roots.insert(entry.key.substr(kDialogPrefix.size()));
      } else if (HasPrefix(entry.key, kSharedPrefix)) {
        scheme.shared_roots.insert(entry.key.substr(kSharedPrefix.size()));
      }
    }
  };
  absorb(baseline);
  absorb(fresh);
  return scheme;
}

std::optional<std::string> MapToRegion(const RegionScheme& scheme,
                                       const std::string& ancestor_path,
                                       const std::string& name, uia::ControlType type) {
  const std::vector<std::string> parts = SplitPath(ancestor_path);
  if (parts.empty()) {
    // A root: the main window, a dialog window, or a floating shared subtree.
    if (name == scheme.window_name) {
      return std::string(kWindowPrefix) + name;
    }
    if (scheme.dialog_roots.count(name) > 0) {
      return std::string(kDialogPrefix) + name;
    }
    if (scheme.shared_roots.count(name) > 0) {
      return std::string(kSharedPrefix) + name;
    }
    return std::nullopt;
  }
  if (parts[0] == scheme.window_name) {
    if (parts.size() == 1) {
      // Direct child of the window root: a partition root (or the strip
      // itself, which scopes under its residual key).
      return std::string(kMainPrefix) + name;
    }
    const std::string& child = parts[1];
    if (scheme.strips.count(child) > 0) {
      if (parts.size() >= 3) {
        return std::string(kMainPrefix) + child + "/" + parts[2];
      }
      // Child of the strip: tab items own their per-tab partition, anything
      // else belongs to the strip residual.
      if (type == uia::ControlType::kTabItem) {
        return std::string(kMainPrefix) + child + "/" + name;
      }
      return std::string(kMainPrefix) + child;
    }
    return std::string(kMainPrefix) + child;
  }
  if (scheme.dialog_roots.count(parts[0]) > 0) {
    return std::string(kDialogPrefix) + parts[0];
  }
  if (scheme.shared_roots.count(parts[0]) > 0) {
    return std::string(kSharedPrefix) + parts[0];
  }
  return std::nullopt;
}

}  // namespace

ChecksumTable ComputeSubtreeChecksums(gsim::Application& app) {
  DigestWalker walker(app);
  std::map<std::string, uint64_t> table;

  const gsim::Control& root = app.main_window().root();
  {
    gsim::StateHash h;
    MixOwnFields(h, root);
    Insert(table, std::string(kWindowPrefix) + root.TrueName(), h.digest());
  }
  for (const gsim::Control* child : root.StaticChildren()) {
    if (child->Type() == uia::ControlType::kTab) {
      // Expanded strip: each tab item is its own partition; the residual key
      // covers the strip control and its non-tab children. Tab items are
      // deliberately excluded from the residual so retitling one tab only
      // invalidates that tab's partition.
      gsim::StateHash residual;
      MixOwnFields(residual, *child);
      residual.MixU64(kMarkChildren);
      for (const gsim::Control* grandchild : child->StaticChildren()) {
        if (grandchild->Type() == uia::ControlType::kTabItem) {
          Insert(table,
                 std::string(kMainPrefix) + child->TrueName() + "/" + grandchild->TrueName(),
                 walker.DigestOf(*grandchild));
        } else {
          residual.MixU64(walker.DigestOf(*grandchild));
        }
      }
      Insert(table, std::string(kMainPrefix) + child->TrueName(), residual.digest());
    } else {
      Insert(table, std::string(kMainPrefix) + child->TrueName(), walker.DigestOf(*child));
    }
  }
  for (const auto& [dialog_id, dialog] : app.DialogEntries()) {
    Insert(table, std::string(kDialogPrefix) + dialog->root().TrueName(),
           walker.DigestOf(dialog->root()));
  }
  for (const gsim::Control* shared : app.SharedSubtreeRoots()) {
    Insert(table, std::string(kSharedPrefix) + shared->TrueName(), walker.DigestOf(*shared));
  }

  ChecksumTable out;
  out.reserve(table.size());
  for (auto& [key, digest] : table) {
    out.push_back(SubtreeChecksum{key, digest});
  }
  return out;
}

ChecksumDiff DiffChecksumTables(const ChecksumTable& baseline, const ChecksumTable& fresh) {
  ChecksumDiff diff;
  size_t b = 0;
  size_t f = 0;
  while (b < baseline.size() || f < fresh.size()) {
    if (b >= baseline.size()) {
      diff.added.push_back(fresh[f++].key);
    } else if (f >= fresh.size()) {
      diff.removed.push_back(baseline[b++].key);
    } else if (baseline[b].key < fresh[f].key) {
      diff.removed.push_back(baseline[b++].key);
    } else if (fresh[f].key < baseline[b].key) {
      diff.added.push_back(fresh[f++].key);
    } else {
      if (baseline[b].checksum != fresh[f].checksum) {
        diff.changed.push_back(baseline[b].key);
      }
      ++b;
      ++f;
    }
  }
  return diff;
}

support::Result<DeltaRipResult> DeltaRip(const DeltaRipOptions& options,
                                         const topo::NavGraph& baseline,
                                         const ChecksumTable& baseline_checksums) {
  if (!options.app_factory) {
    return support::InvalidArgumentError("DeltaRip requires an app_factory");
  }
  DeltaRipResult out;
  {
    std::unique_ptr<gsim::Application> probe = options.app_factory();
    if (probe == nullptr) {
      return support::InvalidArgumentError("DeltaRip app_factory returned null");
    }
    out.checksums = ComputeSubtreeChecksums(*probe);
  }
  out.partitions_total = out.checksums.size();

  // Both rips make the offline model pipeline's own call: one instance of
  // the updated build, GuiRipper::Rip over the extra contexts (exploration
  // shared across them), canonicalized. So a delta or fallback result equals
  // a cold build of the same app, contexts included.
  auto rip_build = [&options](const RipperConfig& config, RipStats* stats) {
    std::unique_ptr<gsim::Application> app = options.app_factory();
    GuiRipper ripper(*app, config);
    topo::NavGraph graph = ripper.Rip(options.extra_contexts).Canonicalized();
    *stats = ripper.stats();
    return graph;
  };

  auto full_rip = [&]() -> support::Result<DeltaRipResult> {
    out.graph = rip_build(options.config, &out.stats);
    out.full_fallback = true;
    out.nodes_reused = 0;
    out.nodes_reripped = out.graph.node_count() > 0 ? out.graph.node_count() - 1 : 0;
    return std::move(out);
  };

  // No baseline table (no checksum table was saved): nothing to diff
  // against — degrade to a full rip rather than erroring.
  if (baseline_checksums.empty()) {
    return full_rip();
  }

  out.diff = DiffChecksumTables(baseline_checksums, out.checksums);

  // The window root's identity prefixes every ancestor path; if it changed,
  // no baseline control id is comparable and splicing is meaningless.
  for (const std::vector<std::string>* keys :
       {&out.diff.changed, &out.diff.added, &out.diff.removed}) {
    for (const std::string& key : *keys) {
      if (HasPrefix(key, kWindowPrefix)) {
        return full_rip();
      }
    }
  }

  if (out.diff.Empty()) {
    // Identical build: the baseline graph *is* the answer (it is already
    // canonical — both the compile and the artifact-load path store
    // canonicalized graphs).
    out.graph = baseline;
    out.nodes_reused = baseline.node_count() > 0 ? baseline.node_count() - 1 : 0;
    return out;
  }

  const RegionScheme scheme = BuildScheme(baseline_checksums, out.checksums);

  // Baseline nodes survive the splice only when their region's digest is
  // certified unchanged (same key, same digest, in both tables). Everything
  // else is dropped and — for main partitions — re-ripped.
  std::set<std::string> keep;
  {
    size_t b = 0;
    size_t f = 0;
    while (b < baseline_checksums.size() && f < out.checksums.size()) {
      if (baseline_checksums[b].key < out.checksums[f].key) {
        ++b;
      } else if (out.checksums[f].key < baseline_checksums[b].key) {
        ++f;
      } else {
        if (baseline_checksums[b].checksum == out.checksums[f].checksum) {
          keep.insert(baseline_checksums[b].key);
        }
        ++b;
        ++f;
      }
    }
  }
  std::set<std::string> scope;  // main:* regions whose seeds the rip enters
  for (const std::vector<std::string>* keys :
       {&out.diff.changed, &out.diff.added, &out.diff.removed}) {
    for (const std::string& key : *keys) {
      if (HasPrefix(key, kMainPrefix)) {
        scope.insert(key);
      }
    }
  }

  // Scoped rip of the updated app: only seeds inside changed/added partitions
  // enter exploration. Unknown regions explore conservatively — re-ripping an
  // unchanged region is harmless (the merge dedups it against the baseline
  // splice), only *skipping* a changed one would be unsound.
  RipperConfig scoped_config = options.config;
  scoped_config.seed_filter = [scheme, scope](const gsim::Control& control,
                                              const std::string& control_id) {
    const ParsedControlId parsed = ParseControlId(control_id);
    const std::optional<std::string> region =
        MapToRegion(scheme, parsed.ancestor_path, control.TrueName(), control.Type());
    if (!region.has_value() || !HasPrefix(*region, kMainPrefix)) {
      return true;
    }
    return scope.count(*region) > 0;
  };
  const topo::NavGraph scoped = rip_build(scoped_config, &out.stats);

  // Splice: copy certified-unchanged baseline regions, merge the scoped rip
  // over them, canonicalize. AddNode/AddEdge dedup overlaps (the scoped rip
  // re-contributes every initially-visible node).
  topo::NavGraph spliced;
  std::vector<int> remap(baseline.node_count(), -1);
  remap[topo::NavGraph::kRootIndex] = topo::NavGraph::kRootIndex;
  for (size_t i = 1; i < baseline.node_count(); ++i) {
    const topo::NodeInfo& info = baseline.node(static_cast<int>(i));
    const ParsedControlId parsed = ParseControlId(info.control_id);
    const std::optional<std::string> region =
        MapToRegion(scheme, parsed.ancestor_path, info.name, info.type);
    if (!region.has_value()) {
      // A baseline node the partition scheme cannot place: splicing could
      // silently keep stale structure, so give up on the delta.
      return full_rip();
    }
    if (keep.count(*region) == 0) {
      continue;
    }
    remap[i] = spliced.AddNode(info);
  }
  for (size_t from = 0; from < baseline.node_count(); ++from) {
    if (remap[from] < 0) {
      continue;
    }
    for (int to : baseline.successors(static_cast<int>(from))) {
      if (remap[static_cast<size_t>(to)] >= 0) {
        spliced.AddEdge(remap[from], remap[static_cast<size_t>(to)]);
      }
    }
  }
  out.nodes_reused = spliced.node_count() > 0 ? spliced.node_count() - 1 : 0;
  out.nodes_reripped = scoped.node_count() > 0 ? scoped.node_count() - 1 : 0;
  spliced.MergeFrom(scoped);
  out.graph = spliced.Canonicalized();
  return out;
}

}  // namespace ripper
