// Capture: the one observation of an application's visible tree per UI state
// (DESIGN.md §7), and the one writer of control identifiers (identifier.h).
//
// Each Application owns one, read by the ripper, the visit executor and
// ScreenView. It walks the tree at most once per ui_generation(): the open
// windows, topmost last, in pre-order over StaticChildren() and then the open
// popup, an offscreen control hiding its subtree. The walk records each
// visible control and the entry its ancestor path extends; it writes no id.
// The first id query of a generation (Visible, FindByIdEnsureFresh,
// FindByIdInWindow, TopWindowEntries) writes every id in one pass and builds
// the IdTable: the generation's "rebuild", whichever consumer walked.
//
// The capture shows its last walk until a consumer refreshes it. Its buffers
// outlive their generation and the application outlives its leases, so a
// warm capture allocates nothing. Not thread-safe: a capture is confined to
// its application's thread.
#ifndef SRC_GUI_CAPTURE_H_
#define SRC_GUI_CAPTURE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gsim {

class Application;
class Control;
class Window;

// One visible (attached, on-screen) control of a capture.
struct CaptureEntry {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  Control* control = nullptr;
  // The entry this control was reached from (static parent or popup host),
  // or kNoParent for a window root. The ancestor path is that entry's plus
  // its name, unless the control's Parent() is null (a floating shared
  // surface): then it restarts at "", as uia::AncestorPath does.
  uint32_t parent = kNoParent;
  // Written by the id pass: the identifier, and where its ancestor path
  // starts in it. An offset, not a view: a growing entries_ moves short
  // (inline-buffer) strings.
  std::string control_id;
  size_t path_offset = 0;
  // The id pass's own: where this control's ancestor path begins in the
  // pass's path buffer, and where its children's ends.
  size_t path_begin = 0;
  size_t path_end = 0;

  // The control's uia::AncestorPath, read out of control_id.
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

class Capture {
 public:
  explicit Capture(Application& app) : app_(&app) {}
  ~Capture() { FlushCounters(); }

  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;

  // Walks unless the last walk is of the current UI generation.
  void Refresh();

  // The controls of the last walk in desktop pre-order, topmost window last,
  // with ids only if an id query wrote them. Valid until the next walk.
  std::span<const CaptureEntry> entries() const {
    return std::span<const CaptureEntry>(entries_.data(), size_);
  }

  // Walks so far, cut-short ones included (ScreenView's layout keys on it).
  uint64_t walks() const { return walks_; }

  // ----- id queries --------------------------------------------------------------
  // All visible controls with their ids. `rebuilt`, when non-null, reports
  // whether this call built the generation's id capture.
  std::span<const CaptureEntry> Visible(bool* rebuilt = nullptr);

  // First visible control (desktop pre-order) with this id, or nullptr. With
  // the generation's id capture built: one hash probe. Stale: ids written
  // only up to the match, by a walk that stops there — a single cold lookup
  // doesn't justify indexing a state the next mutation will discard (replay
  // loops look up once per state).
  Control* FindById(const std::string& control_id);

  // Like FindById, but a stale generation builds the id capture first: for a
  // lookup that a capture of the same state follows (the rip's pre-click
  // target).
  Control* FindByIdEnsureFresh(const std::string& control_id, bool* rebuilt = nullptr);

  // First visible control with this id whose containing window is `window`
  // (the visit executor searches only the topmost valid window), or nullptr.
  Control* FindByIdInWindow(const std::string& control_id, const Window* window);

  // The top window's root subtree with ids: the tail of Visible(), since the
  // walk descends the windows in stacking order. Lists what
  // uia::Walk(top->root()) visits, offscreen subtrees pruned. Counts neither
  // a lookup nor a capture hit.
  std::span<const CaptureEntry> TopWindowEntries();

  // Adds the tallies to the metrics registry as visible_index.* counters and
  // zeroes them; the application calls it when its lease is reset. Warm
  // lookups keep plain fields: no clock, no atomic.
  void FlushCounters();

 private:
  // True while entries_[0, size_) is the whole walk of this UI generation.
  bool IsCurrent() const;

  // Walks every open window into entries_. With `target`, writes each id as
  // it records the entry and stops at the first equal to *target, returning
  // its control; a cut-short walk is not current.
  Control* Walk(const std::string* target);
  Control* Descend(Control& control, uint32_t parent, const std::string* target);

  // Writes the ids of entries_[ids_written_, end).
  void WriteIds(size_t end);

  // Builds the current generation's id capture unless built: walks if
  // stale, writes the ids left and builds the table. Returns whether it did.
  bool Index();

  Control* First(const std::string& control_id) const;

  Application* app_;
  // entries_[0, size_) is the last walk; the rest keep their strings' capacity.
  std::vector<CaptureEntry> entries_;
  size_t size_ = 0;
  size_t top_begin_ = 0;  // entries_[top_begin_, size_) is the top window's
  uint64_t walks_ = 0;
  bool walked_ = false;     // the last walk was whole, of generation_
  uint64_t generation_ = 0;
  size_t ids_written_ = 0;  // entries_[0, ids_written_) carry their ids
  bool indexed_ = false;    // by_id_ indexes the last walk's ids
  IdTable by_id_;
  std::string path_;  // the id pass's open levels' ancestor paths, end to end
  std::string name_;  // a decorated name (Control::ShownName)
  // Since the last flush: id captures built, captures/lookups served from a
  // built one, FindById/FindByIdInWindow/EnsureFresh calls, stale FindByIds.
  uint64_t rebuilds_ = 0;
  uint64_t capture_hits_ = 0;
  uint64_t lookups_ = 0;
  uint64_t cold_walks_ = 0;
};

}  // namespace gsim

#endif  // SRC_GUI_CAPTURE_H_
