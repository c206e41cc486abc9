// Generation-stamped visible-capture index (the rip/visit hot-path cache).
//
// CaptureVisible() and FindVisibleById() used to re-walk the whole
// accessibility tree and re-synthesize every XPath-like control id on every
// call — O(tree x string-build) per lookup, the dominant cost of both the
// ripper's DFS and the visit executor's path navigation. The index memoizes
// exactly one capture walk per gsim::Application UI-state generation (see
// Application::ui_generation()): while the generation is unchanged, captures
// are served from the cache and id lookups are one hash probe.
//
// The capture walk itself is also cheaper than the legacy one: ancestor paths
// are synthesized incrementally during the descent (O(1) amortized per
// element) instead of re-walking the parent chain per element (O(depth)).
// The walk also records where each id's ancestor path starts and where the
// top window's entries begin, so the visit executor's fuzzy fallback scores
// the top window's entries without walking it again.
//
// Invalidation: any mutation that can change the visible tree or an id bumps
// the application generation (clicks, popups, window open/close, renames,
// scroll occlusion, reveal ticks, logical ticks); the next access rebuilds.
// Not thread-safe — an index is confined to its application's thread.
#ifndef SRC_RIPPER_VISIBLE_INDEX_H_
#define SRC_RIPPER_VISIBLE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/gui/application.h"

namespace ripper {

// One visible (attached, on-screen) control and its synthesized identifier.
struct VisibleEntry {
  std::string control_id;
  gsim::Control* control = nullptr;
  // Where the ancestor-path field starts inside control_id, recorded by the
  // VisibleIndex walk. An offset, not a view: entries_ reallocates during
  // that walk, and moving a short (inline-buffer) string moves its bytes.
  size_t path_offset = 0;

  // The control's uia::AncestorPath, read out of control_id (entries that
  // VisibleIndex captured).
  std::string_view ancestor_path() const {
    return std::string_view(control_id).substr(path_offset);
  }
};

class VisibleIndex {
 public:
  explicit VisibleIndex(gsim::Application& app) : app_(&app) {}

  // Flushes the lifetime tallies (rebuilds / capture hits / lookups / cold
  // walks) onto the global MetricsRegistry as visible_index.* counters. The
  // hot path keeps plain (non-atomic) fields; the one-time flush here is what
  // keeps warm lookups free of clocks and atomics.
  ~VisibleIndex();

  // All visible controls in desktop pre-order (identical order and content to
  // the legacy uncached capture). `rebuilt`, when non-null, reports whether
  // this call performed an actual capture walk.
  const std::vector<VisibleEntry>& Visible(bool* rebuilt = nullptr);

  // First visible control (desktop pre-order) with this id, or nullptr.
  // Warm generation: one hash probe. Stale: an early-terminating tree walk
  // (no rebuild — a single cold lookup doesn't justify indexing a state the
  // next mutation will discard).
  gsim::Control* FindById(const std::string& control_id);

  // Like FindById, but on a stale generation performs the full rebuild and
  // probes the fresh index. Use when a capture of the same UI state follows
  // immediately (the rip loop's pre-click target lookup): the rebuild is paid
  // once and the capture is then served warm. `rebuilt`, when non-null,
  // reports whether this call performed the capture walk.
  gsim::Control* FindByIdEnsureFresh(const std::string& control_id,
                                     bool* rebuilt = nullptr);

  // First visible control with this id whose containing window is `window`
  // (the visit executor searches only the topmost valid window), or nullptr.
  gsim::Control* FindByIdInWindow(const std::string& control_id,
                                  const gsim::Window* window);

  // The entries of the top window's (Application::TopWindow()) root subtree:
  // the tail of Visible(), because the walk descends the open windows in
  // stacking order. Lists what uia::Walk(top->root()) visits, with offscreen
  // subtrees pruned — the visit executor's fuzzy fallback scores these
  // instead of re-walking the tree. Rebuilds if stale but counts neither a
  // lookup nor a capture hit; the span is valid until the next rebuild.
  std::span<const VisibleEntry> TopWindowEntries();

 private:
  // Rebuilds if the cached generation is stale; returns true if it rebuilt.
  bool Refresh();

  gsim::Application* app_;
  bool valid_ = false;
  uint64_t cached_generation_ = 0;
  std::vector<VisibleEntry> entries_;
  // entries_[top_begin_, end) is the top window's root subtree.
  size_t top_begin_ = 0;
  // id -> visible controls carrying it, in pre-order (ids are not guaranteed
  // globally unique: non-unique AutomationIds, paper §5.7). Keys are views
  // into entries_' id strings, built in a second pass once entries_ is
  // final — no per-rebuild key copies.
  std::unordered_map<std::string_view, std::vector<gsim::Control*>> by_id_;
  // Lifetime tallies, flushed to the metrics registry by the destructor.
  // Plain fields on purpose: the warm lookup path must stay atomics-free.
  uint64_t rebuilds_ = 0;      // capture walks actually performed
  uint64_t capture_hits_ = 0;  // captures/lookups served from a warm generation
  uint64_t lookups_ = 0;       // FindById / FindByIdInWindow / EnsureFresh calls
  uint64_t cold_walks_ = 0;    // stale FindById early-exit walks (no rebuild)
};

}  // namespace ripper

#endif  // SRC_RIPPER_VISIBLE_INDEX_H_
