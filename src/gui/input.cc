#include "src/gui/input.h"

#include "src/uia/element.h"

namespace gsim {

support::Status InputDriver::ClickAt(Point target) {
  Point actual = injector_ != nullptr ? injector_->PerturbPoint(target) : target;
  Control* hit = screen_->HitTest(actual);
  if (hit == nullptr) {
    screen_->Refresh();
    return support::NotFoundError("click landed on empty space");
  }
  support::Status s = app_->Click(*hit);
  screen_->Refresh();
  return s;
}

support::Status InputDriver::ClickControlByCoordinates(Control& control) {
  return ClickAt(control.rect().Center());
}

support::Status InputDriver::DragScrollThumb(Control& scroll_surface, bool vertical,
                                             double delta_percent) {
  auto* scroll = uia::PatternCast<uia::ScrollPattern>(scroll_surface);
  if (scroll == nullptr) {
    return support::FailedPreconditionError("control '" + scroll_surface.TrueName() +
                                            "' is not scrollable");
  }
  app_->mutable_stats().drags++;
  double applied = delta_percent;
  if (injector_ != nullptr && injector_->config().misclick_sigma_px > 0.0) {
    // Proportional noise: drags overshoot/undershoot by up to ~20%.
    Point noise = injector_->PerturbPoint(Point{0, 0});
    applied *= 1.0 + 0.03 * noise.y;
  }
  support::Status s = vertical ? scroll->ScrollIncrement(0.0, applied)
                               : scroll->ScrollIncrement(applied, 0.0);
  screen_->Refresh();
  return s;
}

support::Status InputDriver::TypeText(const std::string& text) {
  support::Status s = app_->TypeText(text);
  screen_->Refresh();
  return s;
}

support::Status InputDriver::KeyChord(const std::string& chord) {
  support::Status s = app_->PressKey(chord);
  screen_->Refresh();
  return s;
}

}  // namespace gsim
