#include "src/gui/screen.h"

#include <algorithm>
#include <cctype>

#include "src/support/strings.h"
#include "src/text/tokens.h"
#include "src/uia/control_type.h"

namespace gsim {
namespace {

// Deterministic grid layout: 14 columns x 28 rows across the desktop.
constexpr size_t kColumns = 14;
constexpr size_t kRows = 28;
constexpr int kCellWidth = kDesktopWidth / static_cast<int>(kColumns);
constexpr int kCellHeight = 26;

// Writes the label of `index` over `out`, keeping its capacity.
void AssignLabel(size_t index, std::string& out) {
  char letters[16];  // 26^14 > 2^64: enough for any index
  size_t begin = sizeof(letters);
  size_t n = index;
  while (true) {
    letters[--begin] = static_cast<char>('A' + n % 26);
    if (n < 26) {
      break;
    }
    n = n / 26 - 1;
  }
  out.assign(letters + begin, sizeof(letters) - begin);
}

// Appends the control's shown name: its true name, by reference, unless an
// instability injector decorates it.
void AppendName(std::string& out, const Control& control) {
  const Application* app = control.application();
  if (app == nullptr || app->instability() == nullptr) {
    out += control.TrueName();
  } else {
    out += control.Name();
  }
}

// Relaxed name match: the screen may show decorated names ("Bold (Ctrl+B)");
// a human-or-LLM reader still binds them to the plan's "Bold".
bool NameMatches(const std::string& shown, const std::string& wanted) {
  if (shown == wanted) {
    return true;
  }
  return shown.size() > wanted.size() && shown.compare(0, wanted.size(), wanted) == 0 &&
         !isalnum(static_cast<unsigned char>(shown[wanted.size()]));
}

// A shown name starts with the true name, so it can match `wanted` only if
// the two names agree up to the shorter one's length.
bool SharesPrefix(const std::string& true_name, const std::string& wanted) {
  const size_t n = std::min(true_name.size(), wanted.size());
  return true_name.compare(0, n, wanted, 0, n) == 0;
}

// FindInTopWindow's walk: returns the first exact match in pre-order and
// records the first decorated match met on the way.
class NameSearch {
 public:
  NameSearch(const std::string& name, bool accept_decorated)
      : name_(name), accept_decorated_(accept_decorated) {}

  Control* Descend(Control& control) {
    if (control.IsOffscreen()) {
      return nullptr;
    }
    const std::string& true_name = control.TrueName();
    if (true_name == name_) {
      return &control;
    }
    if (accept_decorated_ && decorated_ == nullptr && SharesPrefix(true_name, name_) &&
        NameMatches(control.Name(), name_)) {
      decorated_ = &control;
    }
    for (Control* child : control.StaticChildren()) {
      if (Control* found = Descend(*child)) {
        return found;
      }
    }
    if (control.popup_open() && control.popup() != nullptr) {
      return Descend(*control.popup());
    }
    return nullptr;
  }

  Control* decorated() const { return decorated_; }

 private:
  const std::string& name_;
  const bool accept_decorated_;
  Control* decorated_ = nullptr;
};

}  // namespace

std::string IndexToLabel(size_t index) {
  std::string label;
  AssignLabel(index, label);
  return label;
}

Control* FindInTopWindow(Application& app, const std::string& name, bool accept_decorated) {
  Window* top = app.TopWindow();
  if (top == nullptr) {
    return nullptr;
  }
  NameSearch search(name, accept_decorated);
  Control* exact = search.Descend(top->root());
  return exact != nullptr ? exact : search.decorated();
}

void ScreenView::Refresh() {
  const uint64_t generation = app_->ui_generation();
  if (valid_ && generation == generation_) {
    return;
  }
  // Every open window, topmost last, so hit-testing prefers it.
  size_ = 0;
  for (Window* w : app_->OpenWindows()) {
    Descend(w->root());
  }
  valid_ = true;
  generation_ = generation;
  tokens_valid_ = false;
}

void ScreenView::Descend(Control& control) {
  if (control.IsOffscreen()) {
    return;  // an offscreen subtree is invisible entirely
  }
  if (size_ == labeled_.size()) {
    labeled_.emplace_back();
  }
  const size_t i = size_++;
  LabeledControl& entry = labeled_[i];
  AssignLabel(i, entry.label);
  entry.control = &control;
  const int col = static_cast<int>(i % kColumns);
  const int row = static_cast<int>((i / kColumns) % kRows);
  control.SetRect(Rect{col * kCellWidth, row * kCellHeight, kCellWidth - 4, kCellHeight - 4});
  for (Control* child : control.StaticChildren()) {
    Descend(*child);
  }
  if (control.popup_open() && control.popup() != nullptr) {
    Descend(*control.popup());
  }
}

Control* ScreenView::FindByLabel(const std::string& label) const {
  for (const LabeledControl& lc : labeled()) {
    if (lc.label == label) {
      return lc.control;
    }
  }
  return nullptr;
}

Control* ScreenView::FindByTrueName(const std::string& name) const {
  for (const LabeledControl& lc : labeled()) {
    if (lc.control->TrueName() == name) {
      return lc.control;
    }
  }
  return nullptr;
}

std::string ScreenView::LabelOf(const Control& control) const {
  for (const LabeledControl& lc : labeled()) {
    if (lc.control == &control) {
      return lc.label;
    }
  }
  return "";
}

Control* ScreenView::HitTest(Point p) const {
  // Later entries belong to windows higher in the z-order; scan backward.
  for (size_t i = size_; i-- > 0;) {
    if (labeled_[i].control->rect().Contains(p)) {
      return labeled_[i].control;
    }
  }
  return nullptr;
}

std::string ScreenView::RenderListing(size_t max_entries) const {
  std::string out;
  RenderInto(out, max_entries);
  return out;
}

size_t ScreenView::ListingTokens() {
  const uint64_t generation = app_->ui_generation();
  if (!tokens_valid_ || tokens_generation_ != generation) {
    listing_.clear();
    RenderInto(listing_, 0);
    tokens_ = textutil::CountTokens(listing_);
    tokens_generation_ = generation;
    tokens_valid_ = true;
  }
  return tokens_;
}

void ScreenView::RenderInto(std::string& out, size_t max_entries) const {
  size_t n = size_;
  if (max_entries > 0 && max_entries < n) {
    n = max_entries;
  }
  for (size_t i = 0; i < n; ++i) {
    const LabeledControl& lc = labeled_[i];
    out += lc.label;
    out += ' ';
    AppendName(out, *lc.control);
    out += " (";
    out += uia::ControlTypeName(lc.control->Type());
    out += ")";
    if (!lc.control->IsEnabled()) {
      out += " [disabled]";
    }
    if (lc.control->selected()) {
      out += " [selected]";
    }
    if (lc.control->toggled()) {
      out += " [on]";
    }
    out += '\n';
  }
  if (n < size_) {
    out += support::Format("... (%zu more controls)\n", size_ - n);
  }
}

}  // namespace gsim
