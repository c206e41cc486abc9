// Screen view: synthetic layout, hit-testing and control labeling.
//
// The baseline agent (UFO-2-like) perceives the UI as a labeled list of the
// controls currently visible on screen — alphabetic labels ("A", "B", ...,
// "HF") exactly as the paper's baseline does (§5.1), distinct from DMI's
// numeric topology ids. The layout engine assigns deterministic rectangles so
// the imperative input path can click by coordinate (with grounding noise).
//
// The view is one observation per UI state. Like ripper::VisibleIndex it is
// keyed on Application::ui_generation() (DESIGN.md §7): Refresh() at the
// generation it last laid out is a no-op, and ListingTokens() counts the
// listing's tokens once per generation. A rebuild reuses every buffer — the
// entry list keeps its high-water mark and labels are rewritten in place — so
// once sized it allocates nothing. The walk is one member recursion over
// StaticChildren() plus the open popup.
//
// Rects live on the controls, so several views of one application share
// them. That stays exact: every view lays out one UI state identically, and a
// view that skips a Refresh laid out the current generation itself.
// Not thread-safe — a view is confined to its application's thread.
#ifndef SRC_GUI_SCREEN_H_
#define SRC_GUI_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/gui/application.h"
#include "src/gui/control.h"

namespace gsim {

struct LabeledControl {
  std::string label;   // "A", "B", ..., "Z", "AA", ...
  Control* control = nullptr;
};

// Converts 0 -> "A", 25 -> "Z", 26 -> "AA", ...
std::string IndexToLabel(size_t index);

// The top window's control named `name`, searched in the order the screen
// lists it (pre-order, offscreen subtrees pruned): the first whose TrueName()
// is `name`; failing that, with `accept_decorated`, the first whose shown
// Name() is `name` followed by a decoration that starts with a
// non-alphanumeric character ("Bold (Ctrl+B)"). nullptr if none. Allocates
// nothing, except the shown Name() of a control whose true name shares a
// prefix with `name`.
Control* FindInTopWindow(Application& app, const std::string& name, bool accept_decorated);

class ScreenView {
 public:
  explicit ScreenView(Application& app) : app_(&app) {}

  // Re-derives the visible control set, assigns labels and lays out rects,
  // unless the application's UI generation is the one last laid out. Call
  // after every UI mutation before reading labels or hit-testing.
  void Refresh();

  // The labeled controls in desktop pre-order, topmost window last. Valid
  // until the next rebuild.
  std::span<const LabeledControl> labeled() const {
    return std::span<const LabeledControl>(labeled_.data(), size_);
  }

  // Control carrying the given label, or nullptr.
  Control* FindByLabel(const std::string& label) const;

  // First labeled control whose TrueName() is `name`, or nullptr.
  Control* FindByTrueName(const std::string& name) const;

  // Label of the control, or "" if not visible.
  std::string LabelOf(const Control& control) const;

  // Topmost visible control whose rect contains p, or nullptr.
  Control* HitTest(Point p) const;

  // Textual listing passed to the (simulated) LLM as the screen observation:
  // one line per control, "label name (type) [state]". It lists the controls
  // of the last Refresh() with their current names and states.
  std::string RenderListing(size_t max_entries = 0) const;

  // textutil::CountTokens(RenderListing()), counted once per UI generation.
  size_t ListingTokens();

  size_t VisibleCount() const { return size_; }

 private:
  // Labels and lays out `control` and its visible subtree.
  void Descend(Control& control);

  // Appends the listing to `out`.
  void RenderInto(std::string& out, size_t max_entries) const;

  Application* app_;
  bool valid_ = false;
  uint64_t generation_ = 0;
  // labeled_[0, size_) is the screen; the entries past size_ are kept from a
  // larger screen before.
  std::vector<LabeledControl> labeled_;
  size_t size_ = 0;
  // ListingTokens() memo, stamped with the generation it counted at and
  // dropped by a rebuild. listing_ is its reused render buffer.
  bool tokens_valid_ = false;
  uint64_t tokens_generation_ = 0;
  size_t tokens_ = 0;
  std::string listing_;
};

}  // namespace gsim

#endif  // SRC_GUI_SCREEN_H_
