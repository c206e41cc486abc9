// Screen view: synthetic layout, hit-testing and control labeling.
//
// The baseline agent (UFO-2-like) perceives the UI as a labeled list of the
// controls currently visible on screen — alphabetic labels ("A", "B", ...,
// "HF") exactly as the paper's baseline does (§5.1), distinct from DMI's
// numeric topology ids. The layout engine assigns deterministic rectangles so
// the imperative input path can click by coordinate (with grounding noise).
//
// The view reads its application's Capture (capture.h, DESIGN.md §7): the
// labeled controls are its entries, and a label is a function of the index,
// so none is stored. Between a mutation and the next Refresh(), labeled(),
// HitTest and the rects show the last refresh, as long as nothing else
// refreshes the capture. Rects live on the controls; every view lays a walk
// out identically. Once the capture is sized, nothing here allocates. Not
// thread-safe — a view is confined to its application's thread.
#ifndef SRC_GUI_SCREEN_H_
#define SRC_GUI_SCREEN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/gui/application.h"
#include "src/gui/capture.h"
#include "src/gui/control.h"

namespace gsim {

// Converts 0 -> "A", 25 -> "Z", 26 -> "AA", ...
std::string IndexToLabel(size_t index);

// The inverse of IndexToLabel: "A" -> 0, "AA" -> 26, ... Labels come from
// the LLM's declarations, so an empty label, a character outside 'A'-'Z' and
// a label too long to decode all give nullopt. Every index below SIZE_MAX
// round-trips.
std::optional<size_t> LabelToIndex(std::string_view label);

// The top window's control named `name`, searched in the order the screen
// lists it (pre-order, offscreen subtrees pruned): the first whose TrueName()
// is `name`; failing that, with `accept_decorated`, the first whose shown
// Name() is `name` followed by a decoration that starts with a
// non-alphanumeric character ("Bold (Ctrl+B)"). nullptr if none. Allocates
// nothing, except the shown Name() of a control whose true name shares a
// prefix with `name`. It walks the live tree, not the capture: the baseline
// asks for it between a mutation and its next Refresh(), and refreshing the
// capture there would replace the list the screen holds.
Control* FindInTopWindow(Application& app, const std::string& name, bool accept_decorated);

class ScreenView {
 public:
  explicit ScreenView(Application& app) : app_(&app) {}

  // Refreshes the capture and lays its controls' rects out, unless this view
  // laid out its last walk already. Call after every UI mutation before
  // reading labels or hit-testing.
  void Refresh();

  // The labeled controls in desktop pre-order, topmost window last: entry i
  // carries IndexToLabel(i). Valid until the capture's next walk.
  std::span<const CaptureEntry> labeled() const { return app_->capture().entries(); }

  // Control carrying the given label (decoded with LabelToIndex), or nullptr.
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

  size_t VisibleCount() const { return labeled().size(); }

 private:
  // Appends the listing to `out`.
  void RenderInto(std::string& out, size_t max_entries) const;

  Application* app_;
  // The capture walk this view last laid out (Capture::walks(); 0: none).
  uint64_t laid_out_walk_ = 0;
  // ListingTokens() memo, stamped with the generation it counted at and
  // dropped by a layout. listing_ is its reused render buffer.
  bool tokens_valid_ = false;
  uint64_t tokens_generation_ = 0;
  size_t tokens_ = 0;
  std::string listing_;
};

}  // namespace gsim

#endif  // SRC_GUI_SCREEN_H_
