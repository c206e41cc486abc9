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
// A warm rebuild allocates nothing. Every buffer outlives its generation:
// entry ids are overwritten in place (a string keeps its capacity), the
// ancestor paths of the walk's open levels share one string, undecorated
// names are read by reference, and the id table (IdTable) refills its
// arrays. Only a capture larger than any before it, or longer ids, grows
// them. The one walk (a member recursion over StaticChildren() plus the open
// popup) serves both the rebuild and the stale FindById early-exit walk.
// Captures are spans into entries_, valid until the next rebuild; the
// ripper's click diff therefore copies the pre-click ids into its own reused
// arena and IdTable before the post-click capture rewrites the entries.
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
#include <vector>

#include "src/gui/application.h"

namespace ripper {

// One visible (attached, on-screen) control and its synthesized identifier.
struct VisibleEntry {
  std::string control_id;
  gsim::Control* control = nullptr;
  // Where the ancestor-path field starts inside control_id, recorded by the
  // VisibleIndex walk. An offset, not a view: entries_ reallocates while a
  // capture larger than any before it grows it, and moving a short
  // (inline-buffer) string moves its bytes.
  size_t path_offset = 0;

  // The control's uia::AncestorPath, read out of control_id (entries that
  // VisibleIndex captured).
  std::string_view ancestor_path() const {
    return std::string_view(control_id).substr(path_offset);
  }
};

// A flat chained hash table over a list of ids: one head per bucket and one
// next index per key, each chain in the order the keys were added. So the
// first match on a chain is the first key added with that id (ids are not
// guaranteed unique: non-unique AutomationIds, paper §5.7). Keys are views:
// their bytes must stay put until the next Clear(). Clear() keeps every
// array, so refilling the table with as many keys allocates nothing.
class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  void Clear() {
    keys_.clear();
    heads_.clear();
  }
  void Add(std::string_view id) { keys_.push_back(id); }
  // Chains the keys added since Clear(); call it before the first Find.
  void Build();

  // Index (in Add order) of the first key equal to `id`, or kNone.
  uint32_t Find(std::string_view id) const;
  // Index of the next key after `i` equal to key `i`, or kNone.
  uint32_t FindNext(uint32_t i) const;

 private:
  size_t Bucket(std::string_view id) const;

  std::vector<std::string_view> keys_;
  std::vector<uint32_t> heads_;  // per bucket: its first key, or kNone
  std::vector<uint32_t> next_;   // per key: the next key in its bucket, or kNone
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
  // this call performed an actual capture walk. The span is valid until the
  // next rebuild.
  std::span<const VisibleEntry> Visible(bool* rebuilt = nullptr);

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

  // The capture walk from `control`, whose ancestor path is
  // path_[path_begin, end). Rebuilding (`target` null) stores one entry per
  // visited control and returns null; the stale FindById walk compares each
  // id with *target and returns the first match, where it stops.
  gsim::Control* Descend(gsim::Control& control, size_t path_begin,
                         const std::string* target);

  // Writes the control's id (primary|type|ancestor path) over `id`, keeping
  // its capacity; returns where the ancestor path starts.
  size_t WriteId(const gsim::Control& control, const std::string& name, size_t path_begin,
                 std::string& id) const;

  // Control::Name() without its copy: the true name unless an instability
  // injector decorates it. Valid until the next call.
  const std::string& NameOf(const gsim::Control& control);

  gsim::Control* First(const std::string& control_id) const;

  gsim::Application* app_;
  bool valid_ = false;
  uint64_t cached_generation_ = 0;
  // entries_[0, size_) is the capture. The entries past size_ are kept for
  // their id strings' capacity.
  std::vector<VisibleEntry> entries_;
  size_t size_ = 0;
  // entries_[top_begin_, size_) is the top window's root subtree.
  size_t top_begin_ = 0;
  // Ids of entries_[0, size_), in pre-order, as views into their strings:
  // entries_ no longer grows once the walk is done.
  IdTable by_id_;
  // Walk state. path_ holds the ancestor paths of the walk's open levels
  // end to end; each level appends its name segment and trims it on return.
  std::string path_;
  std::string name_;  // a decorated name
  std::string id_;    // the stale FindById walk's synthesized id
  // Lifetime tallies, flushed to the metrics registry by the destructor.
  // Plain fields on purpose: the warm lookup path must stay atomics-free.
  uint64_t rebuilds_ = 0;      // capture walks actually performed
  uint64_t capture_hits_ = 0;  // captures/lookups served from a warm generation
  uint64_t lookups_ = 0;       // FindById / FindByIdInWindow / EnsureFresh calls
  uint64_t cold_walks_ = 0;    // stale FindById early-exit walks (no rebuild)
};

}  // namespace ripper

#endif  // SRC_RIPPER_VISIBLE_INDEX_H_
