#include "src/gui/screen.h"

#include <algorithm>
#include <cctype>
#include <span>

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

// Appends the label of `index`.
void AppendLabel(std::string& out, size_t index) {
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
  out.append(letters + begin, sizeof(letters) - begin);
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
  AppendLabel(label, index);
  return label;
}

std::optional<size_t> LabelToIndex(std::string_view label) {
  if (label.empty()) {
    return std::nullopt;
  }
  // Bijective base 26: "A" is 1, "Z" 26, "AA" 27; the index is one less.
  size_t value = 0;
  for (const char c : label) {
    if (c < 'A' || c > 'Z' || __builtin_mul_overflow(value, size_t{26}, &value) ||
        __builtin_add_overflow(value, static_cast<size_t>(c - 'A' + 1), &value)) {
      return std::nullopt;
    }
  }
  return value - 1;
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
  Capture& capture = app_->capture();
  capture.Refresh();
  if (laid_out_walk_ == capture.walks()) {
    return;
  }
  const std::span<const CaptureEntry> entries = capture.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const int col = static_cast<int>(i % kColumns);
    const int row = static_cast<int>((i / kColumns) % kRows);
    entries[i].control->SetRect(
        Rect{col * kCellWidth, row * kCellHeight, kCellWidth - 4, kCellHeight - 4});
  }
  laid_out_walk_ = capture.walks();
  tokens_valid_ = false;
}

Control* ScreenView::FindByLabel(const std::string& label) const {
  const std::span<const CaptureEntry> entries = labeled();
  const std::optional<size_t> index = LabelToIndex(label);
  return index && *index < entries.size() ? entries[*index].control : nullptr;
}

Control* ScreenView::FindByTrueName(const std::string& name) const {
  for (const CaptureEntry& entry : labeled()) {
    if (entry.control->TrueName() == name) {
      return entry.control;
    }
  }
  return nullptr;
}

std::string ScreenView::LabelOf(const Control& control) const {
  const std::span<const CaptureEntry> entries = labeled();
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].control == &control) {
      return IndexToLabel(i);
    }
  }
  return "";
}

Control* ScreenView::HitTest(Point p) const {
  // Later entries belong to windows higher in the z-order; scan backward.
  const std::span<const CaptureEntry> entries = labeled();
  for (size_t i = entries.size(); i-- > 0;) {
    if (entries[i].control->rect().Contains(p)) {
      return entries[i].control;
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
  const std::span<const CaptureEntry> entries = labeled();
  size_t n = entries.size();
  if (max_entries > 0 && max_entries < n) {
    n = max_entries;
  }
  std::string decorated;
  for (size_t i = 0; i < n; ++i) {
    const Control& control = *entries[i].control;
    AppendLabel(out, i);
    out += ' ';
    out += control.ShownName(decorated);
    out += " (";
    out += uia::ControlTypeName(control.Type());
    out += ")";
    if (!control.IsEnabled()) {
      out += " [disabled]";
    }
    if (control.selected()) {
      out += " [selected]";
    }
    if (control.toggled()) {
      out += " [on]";
    }
    out += '\n';
  }
  if (n < entries.size()) {
    out += support::Format("... (%zu more controls)\n", entries.size() - n);
  }
}

}  // namespace gsim
