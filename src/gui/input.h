// InputDriver: the imperative input path — mouse clicks by coordinate, drags,
// keyboard chords and typing. This is what the GUI-only baseline agent uses.
// Coordinate-addressed actions pass through the instability injector's
// grounding noise, so a "click the control at (x, y)" can land on a neighbor,
// reproducing the visual-grounding fragility of vision-based agents
// (paper §2.1 Mismatch #2). DMI never uses coordinates.
#ifndef SRC_GUI_INPUT_H_
#define SRC_GUI_INPUT_H_

#include <string>

#include "src/gui/application.h"
#include "src/gui/instability.h"
#include "src/gui/screen.h"
#include "src/support/status.h"

namespace gsim {

class InputDriver {
 public:
  // `screen` and `injector` are borrowed; injector may be nullptr.
  InputDriver(Application& app, ScreenView& screen, InstabilityInjector* injector)
      : app_(&app), screen_(&screen), injector_(injector) {}

  // Clicks at a screen coordinate: perturbs the point, hit-tests, clicks
  // whatever is actually under the (noisy) cursor. May hit a neighbor or
  // nothing at all.
  support::Status ClickAt(Point target);

  // Clicks the center of the control's rect *by coordinate* — the composite
  // "locate visually, then click" a GUI agent performs.
  support::Status ClickControlByCoordinates(Control& control);

  // One drag step on a scroll thumb: moves the owning surface by
  // `delta_percent` on the given axis, with proportional noise on the amount.
  // The baseline must iterate drag-observe cycles to reach a target; DMI sets
  // the scroll position in one declarative call instead.
  support::Status DragScrollThumb(Control& scroll_surface, bool vertical, double delta_percent);

  support::Status TypeText(const std::string& text);
  support::Status KeyChord(const std::string& chord);

 private:
  Application* app_;
  ScreenView* screen_;
  InstabilityInjector* injector_;
};

}  // namespace gsim

#endif  // SRC_GUI_INPUT_H_
