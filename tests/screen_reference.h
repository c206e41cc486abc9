// The reference screen observation: ScreenView's labels, layout and listing
// derived from scratch on a uia::Walk, with no cache, no reused buffer and
// nothing written onto the controls. The tests assert the generation-keyed
// ScreenView against it after every UI mutation. It also holds the top-window
// name lookup (FindInTopWindow) as a walk.
#ifndef TESTS_SCREEN_REFERENCE_H_
#define TESTS_SCREEN_REFERENCE_H_

#include <cctype>
#include <string>
#include <vector>

#include "src/gui/application.h"
#include "src/gui/control.h"
#include "src/gui/geometry.h"
#include "src/support/strings.h"
#include "src/uia/control_type.h"
#include "src/uia/tree.h"

namespace screen_reference {

struct Entry {
  std::string label;
  gsim::Control* control = nullptr;
  gsim::Rect rect;
};

// 0 -> "A", 25 -> "Z", 26 -> "AA", ...
inline std::string Label(size_t index) {
  std::string label;
  size_t n = index;
  while (true) {
    label.insert(label.begin(), static_cast<char>('A' + n % 26));
    if (n < 26) {
      break;
    }
    n = n / 26 - 1;
  }
  return label;
}

// Every visible (attached, onscreen) control across the open windows,
// topmost window last, with its label and the rect of a 14 x 28 grid layout.
inline std::vector<Entry> LabeledControls(gsim::Application& app) {
  std::vector<gsim::Control*> visible;
  for (gsim::Window* w : app.OpenWindows()) {
    uia::Walk(w->root(), [&](uia::Element& e, int) {
      if (e.IsOffscreen()) {
        return false;  // offscreen subtree is invisible entirely
      }
      visible.push_back(static_cast<gsim::Control*>(&e));
      return true;
    });
  }
  constexpr int kCellWidth = gsim::kDesktopWidth / 14;
  constexpr int kCellHeight = 26;
  std::vector<Entry> out;
  for (size_t i = 0; i < visible.size(); ++i) {
    const int col = static_cast<int>(i % 14);
    const int row = static_cast<int>((i / 14) % 28);
    out.push_back(Entry{Label(i), visible[i],
                        gsim::Rect{col * kCellWidth, row * kCellHeight, kCellWidth - 4,
                                   kCellHeight - 4}});
  }
  return out;
}

// One line per entry, "label name (type) [state]", names as shown now.
inline std::string RenderListing(const std::vector<Entry>& entries, size_t max_entries = 0) {
  std::string out;
  size_t n = entries.size();
  if (max_entries > 0 && max_entries < n) {
    n = max_entries;
  }
  for (size_t i = 0; i < n; ++i) {
    const gsim::Control& c = *entries[i].control;
    out += entries[i].label + " " + c.Name() + " (" +
           std::string(uia::ControlTypeName(c.Type())) + ")";
    if (!c.IsEnabled()) {
      out += " [disabled]";
    }
    if (c.selected()) {
      out += " [selected]";
    }
    if (c.toggled()) {
      out += " [on]";
    }
    out += '\n';
  }
  if (n < entries.size()) {
    out += support::Format("... (%zu more controls)\n", entries.size() - n);
  }
  return out;
}

// The top window's control named `name`: the first exact TrueName() in
// pre-order, else (with `accept_decorated`) the first whose shown Name() is
// `name` plus a decoration that starts with a non-alphanumeric character.
inline gsim::Control* FindInTopWindow(gsim::Application& app, const std::string& name,
                                      bool accept_decorated) {
  gsim::Control* exact = nullptr;
  gsim::Control* decorated = nullptr;
  uia::Walk(app.TopWindow()->root(), [&](uia::Element& e, int) {
    if (exact != nullptr || e.IsOffscreen()) {
      return false;
    }
    auto* c = static_cast<gsim::Control*>(&e);
    if (c->TrueName() == name) {
      exact = c;
      return false;
    }
    const std::string shown = c->Name();
    const bool matches =
        shown == name ||
        (shown.size() > name.size() && shown.compare(0, name.size(), name) == 0 &&
         !isalnum(static_cast<unsigned char>(shown[name.size()])));
    if (accept_decorated && decorated == nullptr && matches) {
      decorated = c;
    }
    return true;
  });
  return exact != nullptr ? exact : decorated;
}

}  // namespace screen_reference

#endif  // TESTS_SCREEN_REFERENCE_H_
