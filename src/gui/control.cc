#include "src/gui/control.h"

#include <atomic>
#include <cassert>

#include "src/support/strings.h"

#include "src/gui/application.h"
#include "src/gui/window.h"

namespace gsim {
namespace {

// ----- Generic pattern adapters --------------------------------------------
// These glue UIA pattern calls to the control's click semantics, so that any
// clickable control is also drivable through patterns (as UIA providers do).

class InvokeAdapter : public uia::InvokePattern {
 public:
  explicit InvokeAdapter(Control* control) : control_(control) {}
  support::Status Invoke() override {
    Application* app = control_->application();
    if (app == nullptr) {
      return support::InternalError("control is not attached to an application");
    }
    return app->Click(*control_);
  }

 private:
  Control* control_;
};

class ToggleAdapter : public uia::TogglePattern {
 public:
  explicit ToggleAdapter(Control* control) : control_(control) {}
  uia::ToggleState State() const override {
    return control_->toggled() ? uia::ToggleState::kOn : uia::ToggleState::kOff;
  }
  support::Status Toggle() override {
    Application* app = control_->application();
    if (app == nullptr) {
      return support::InternalError("control is not attached to an application");
    }
    return app->Click(*control_);
  }

 private:
  Control* control_;
};

class ExpandCollapseAdapter : public uia::ExpandCollapsePattern {
 public:
  explicit ExpandCollapseAdapter(Control* control) : control_(control) {}
  uia::ExpandCollapseState State() const override {
    if (control_->popup() == nullptr) {
      return uia::ExpandCollapseState::kLeafNode;
    }
    return control_->popup_open() ? uia::ExpandCollapseState::kExpanded
                                  : uia::ExpandCollapseState::kCollapsed;
  }
  support::Status Expand() override {
    if (control_->popup() == nullptr) {
      return support::FailedPreconditionError("control has no expandable content");
    }
    if (control_->popup_open()) {
      return support::Status::Ok();
    }
    return control_->application()->Click(*control_);
  }
  support::Status Collapse() override {
    if (!control_->popup_open()) {
      return support::Status::Ok();
    }
    control_->application()->ClosePopupsFrom(*control_);
    return support::Status::Ok();
  }

 private:
  Control* control_;
};

class SelectionItemAdapter : public uia::SelectionItemPattern {
 public:
  explicit SelectionItemAdapter(Control* control) : control_(control) {}
  bool IsSelected() const override { return control_->selected(); }
  support::Status Select() override { return control_->application()->SelectControl(*control_, /*additive=*/false); }
  support::Status AddToSelection() override {
    return control_->application()->SelectControl(*control_, /*additive=*/true);
  }
  support::Status RemoveFromSelection() override {
    return control_->application()->DeselectControl(*control_);
  }

 private:
  Control* control_;
};

class SelectionAdapter : public uia::SelectionPattern {
 public:
  explicit SelectionAdapter(Control* control) : control_(control) {}
  bool CanSelectMultiple() const override {
    // Grids and lists allow multi-select; tab strips are exclusive.
    return control_->Type() != uia::ControlType::kTab;
  }
  std::vector<uia::Element*> GetSelection() const override {
    std::vector<uia::Element*> out;
    const_cast<Control*>(control_)->WalkStatic([&out](Control& c) {
      if (c.selected()) {
        out.push_back(&c);
      }
    });
    return out;
  }

 private:
  Control* control_;
};

class ValueAdapter : public uia::ValuePattern {
 public:
  explicit ValueAdapter(Control* control) : control_(control) {}
  std::string GetValue() const override { return control_->text_value(); }
  bool IsReadOnly() const override { return !control_->IsEnabled(); }
  support::Status SetValue(const std::string& value) override {
    if (!control_->IsEnabled()) {
      return support::FailedPreconditionError("edit control '" + control_->TrueName() +
                                              "' is disabled");
    }
    control_->set_text_value(value);
    control_->application()->OnValueChanged(*control_);
    return support::Status::Ok();
  }

 private:
  Control* control_;
};

class RangeValueAdapter : public uia::RangeValuePattern {
 public:
  explicit RangeValueAdapter(Control* control) : control_(control) {}
  double Value() const override { return control_->range_value(); }
  double Minimum() const override { return control_->range_min(); }
  double Maximum() const override { return control_->range_max(); }
  support::Status SetValue(double value) override {
    if (!control_->IsEnabled()) {
      return support::FailedPreconditionError("range control '" + control_->TrueName() +
                                              "' is disabled");
    }
    if (value < control_->range_min() || value > control_->range_max()) {
      return support::InvalidArgumentError(support::Format(
          "value %.2f outside [%.2f, %.2f] for '%s'", value, control_->range_min(),
          control_->range_max(), control_->TrueName().c_str()));
    }
    control_->set_range_value(value);
    control_->application()->OnValueChanged(*control_);
    return support::Status::Ok();
  }

 private:
  Control* control_;
};

}  // namespace

uint64_t Control::NextRuntimeId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Control::Control(std::string name, uia::ControlType type)
    : name_(std::move(name)), type_(type), runtime_id_(NextRuntimeId()) {}

Control::~Control() = default;

std::string Control::Name() const {
  if (app_ != nullptr) {
    return app_->DecorateName(*this);
  }
  return name_;
}

bool Control::IsOffscreen() const {
  // Forced-offscreen is inherited: a hidden pane hides its whole subtree.
  for (const Control* node = this; node != nullptr; node = node->parent_) {
    if (node->forced_offscreen_) {
      return true;
    }
  }
  // Slow-loading popups stay offscreen until their reveal tick passes.
  if (app_ != nullptr && app_->IsPendingReveal(*this)) {
    return true;
  }
  // Otherwise: attachment (Children()) already encodes popup visibility, so
  // anything reachable from an open window's root is on-screen.
  return false;
}

std::vector<uia::Element*> Control::Children() const {
  std::vector<uia::Element*> out;
  out.reserve(child_ptrs_.size() + 1);
  for (Control* c : child_ptrs_) {
    out.push_back(c);
  }
  if (popup_open_) {
    Control* p = popup();
    if (p != nullptr) {
      out.push_back(p);
    }
  }
  return out;
}

uia::Element* Control::Parent() const {
  // Floating surfaces present as top-level popups (see SetFloating).
  return floating_ ? nullptr : parent_;
}

uia::Pattern* Control::GetPattern(uia::PatternId id) {
  auto it = patterns_.find(id);
  if (it != patterns_.end()) {
    return it->second.get();
  }
  // Lazily materialize generic adapters appropriate to this control.
  std::unique_ptr<uia::Pattern> adapter;
  switch (id) {
    case uia::PatternId::kInvoke:
      if (click_effect_ != ClickEffect::kNone) {
        adapter = std::make_unique<InvokeAdapter>(this);
      }
      break;
    case uia::PatternId::kToggle:
      if (click_effect_ == ClickEffect::kToggle || type_ == uia::ControlType::kCheckBox) {
        adapter = std::make_unique<ToggleAdapter>(this);
      }
      break;
    case uia::PatternId::kExpandCollapse:
      if (popup() != nullptr) {
        adapter = std::make_unique<ExpandCollapseAdapter>(this);
      }
      break;
    case uia::PatternId::kSelectionItem:
      if (click_effect_ == ClickEffect::kSelect ||
          type_ == uia::ControlType::kListItem || type_ == uia::ControlType::kTabItem ||
          type_ == uia::ControlType::kRadioButton || type_ == uia::ControlType::kDataItem ||
          type_ == uia::ControlType::kTreeItem) {
        adapter = std::make_unique<SelectionItemAdapter>(this);
      }
      break;
    case uia::PatternId::kValue:
      if (type_ == uia::ControlType::kEdit || type_ == uia::ControlType::kComboBox ||
          type_ == uia::ControlType::kDataItem) {
        adapter = std::make_unique<ValueAdapter>(this);
      }
      break;
    case uia::PatternId::kRangeValue:
      if (type_ == uia::ControlType::kSlider || type_ == uia::ControlType::kSpinner ||
          type_ == uia::ControlType::kProgressBar) {
        adapter = std::make_unique<RangeValueAdapter>(this);
      }
      break;
    case uia::PatternId::kSelection:
      if (type_ == uia::ControlType::kList || type_ == uia::ControlType::kDataGrid ||
          type_ == uia::ControlType::kTab || type_ == uia::ControlType::kTree ||
          type_ == uia::ControlType::kTable) {
        adapter = std::make_unique<SelectionAdapter>(this);
      }
      break;
    default:
      break;
  }
  if (adapter == nullptr) {
    return nullptr;
  }
  uia::Pattern* raw = adapter.get();
  patterns_[id] = std::move(adapter);
  return raw;
}

Control* Control::AddChild(std::unique_ptr<Control> child) {
  assert(child != nullptr);
  child->parent_ = this;
  if (window_ != nullptr || app_ != nullptr) {
    child->PropagateContext(window_, app_);
  }
  Control* raw = child.get();
  children_.push_back(std::move(child));
  child_ptrs_.push_back(raw);
  MarkTouched();  // child count
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // dynamic structure growth
  }
  return raw;
}

Control* Control::NewChild(std::string name, uia::ControlType type) {
  return AddChild(std::make_unique<Control>(std::move(name), type));
}

std::unique_ptr<Control> Control::RemoveChild(Control* child) {
  assert(app_ == nullptr || !app_->fresh_state_captured());
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() != child) {
      continue;
    }
    std::unique_ptr<Control> removed = std::move(children_[i]);
    children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
    child_ptrs_.erase(child_ptrs_.begin() + static_cast<ptrdiff_t>(i));
    removed->parent_ = nullptr;
    if (app_ != nullptr) {
      app_->BumpUiGeneration();
    }
    return removed;
  }
  return nullptr;
}

Control* Control::SetPopup(std::unique_ptr<Control> popup_root) {
  assert(popup_root != nullptr);
  popup_root->parent_ = this;
  if (window_ != nullptr || app_ != nullptr) {
    popup_root->PropagateContext(window_, app_);
  }
  if (click_effect_ == ClickEffect::kNone) {
    click_effect_ = ClickEffect::kRevealPopup;
  }
  owned_popup_ = std::move(popup_root);
  return owned_popup_.get();
}

void Control::SetSharedPopup(Control* shared_root) {
  assert(shared_root != nullptr);
  shared_popup_ = shared_root;
  if (click_effect_ == ClickEffect::kNone) {
    click_effect_ = ClickEffect::kRevealPopup;
  }
}

Control* Control::SetPopupPersistent(bool persistent) {
  popup_persistent_ = persistent;
  return this;
}

Control* Control::SetAutomationId(std::string id) {
  automation_id_ = std::move(id);
  return this;
}
Control* Control::SetHelpText(std::string text) {
  help_text_ = std::move(text);
  return this;
}
Control* Control::SetEnabled(bool enabled) {
  if (enabled_ != enabled) {
    enabled_ = enabled;
    MarkTouched();
    if (app_ != nullptr) {
      app_->BumpUiGeneration();  // [disabled] markers feed the screen listing
    }
  }
  return this;
}
Control* Control::SetClickEffect(ClickEffect effect) {
  click_effect_ = effect;
  return this;
}
Control* Control::SetCommand(std::string command) {
  command_ = std::move(command);
  if (click_effect_ == ClickEffect::kNone) {
    click_effect_ = ClickEffect::kCommand;
  }
  return this;
}
Control* Control::SetDialogId(std::string dialog_id) {
  dialog_id_ = std::move(dialog_id);
  click_effect_ = ClickEffect::kOpenDialog;
  return this;
}
Control* Control::SetCloseDisposition(CloseDisposition d) {
  close_disposition_ = d;
  click_effect_ = ClickEffect::kCloseWindow;
  return this;
}
Control* Control::SetRevealTarget(Control* target) {
  reveal_target_ = target;
  click_effect_ = ClickEffect::kRevealExisting;
  return this;
}
Control* Control::SetRect(Rect rect) {
  rect_ = rect;
  return this;
}

void Control::AttachPattern(std::unique_ptr<uia::Pattern> pattern) {
  assert(pattern != nullptr);
  patterns_[pattern->id()] = std::move(pattern);
}

void Control::SetPopupOpen(bool open) {
  if (popup_open_ != open) {
    MarkTouched();
    if (popup_persistent_ && app_ != nullptr) {
      app_->TrackPersistentPane(*this, open);
    }
  }
  popup_open_ = open;
  if (app_ != nullptr) {
    app_->BumpUiGeneration();
  }
  Control* p = popup();
  if (p == nullptr) {
    return;
  }
  if (open) {
    // A shared subtree adopts the opening host as its parent so ancestor
    // paths reflect the actual access path. Only the root is marked: its
    // restore puts the snapshot's window back throughout the subtree.
    if (p->parent_ != this || p->window_ != window_) {
      p->MarkTouched();
    }
    p->parent_ = this;
    p->PropagateContext(window_, app_);
  }
}

void Control::SetForcedOffscreen(bool offscreen) {
  if (forced_offscreen_ != offscreen) {
    MarkTouched();
  }
  forced_offscreen_ = offscreen;
  if (app_ != nullptr) {
    app_->BumpUiGeneration();
  }
}

void Control::RenameTo(std::string new_name) {
  if (name_ != new_name) {
    MarkTouched();
  }
  name_ = std::move(new_name);
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // names feed synthesized control ids
  }
}

void Control::set_toggled(bool t) {
  if (toggled_ == t) {
    return;
  }
  toggled_ = t;
  MarkTouched();
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // [on] markers feed the screen listing
  }
}

void Control::set_selected(bool s) {
  if (selected_ == s) {
    return;
  }
  selected_ = s;
  MarkTouched();
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // [selected] markers feed the screen listing
  }
}

void Control::set_text_value(std::string v) {
  if (text_value_ == v) {
    return;
  }
  text_value_ = std::move(v);
  MarkTouched();
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // edit values feed the passive data payload
  }
}

void Control::set_range_value(double v) {
  if (range_value_ == v) {
    return;
  }
  range_value_ = v;
  MarkTouched();
  if (app_ != nullptr) {
    app_->BumpUiGeneration();  // range values feed the passive data payload
  }
}

Control::FreshState Control::CaptureFreshState() const {
  FreshState s;
  s.name = name_;
  s.enabled = enabled_;
  s.forced_offscreen = forced_offscreen_;
  s.popup_open = popup_open_;
  s.toggled = toggled_;
  s.selected = selected_;
  s.text_value = text_value_;
  s.range_value = range_value_;
  s.child_count = children_.size();
  s.parent = parent_;
  s.window = window_;
  return s;
}

void Control::RestoreFreshState(const FreshState& s) {
  name_ = s.name;
  enabled_ = s.enabled;
  forced_offscreen_ = s.forced_offscreen;
  if (popup_persistent_ && popup_open_ != s.popup_open) {
    app_->TrackPersistentPane(*this, s.popup_open);
  }
  popup_open_ = s.popup_open;
  toggled_ = s.toggled;
  selected_ = s.selected;
  text_value_ = s.text_value;
  range_value_ = s.range_value;
  // Children added after capture (dynamic structure growth) are dropped so
  // the static tree matches a freshly built one.
  if (children_.size() > s.child_count) {
    children_.resize(s.child_count);
    child_ptrs_.resize(s.child_count);
  }
  parent_ = s.parent;
  if (window_ != s.window) {
    // A shared popup root: opening it rewrote window_ across its subtree.
    PropagateContext(s.window, app_);
  }
  touched_ = false;
}

void Control::MarkTouched() {
  if (touched_ || fresh_index_ == kNoSnapshot) {
    return;
  }
  touched_ = true;
  app_->touched_.push_back(this);
}

void Control::SetWindow(Window* window) { window_ = window; }

void Control::SetApplication(Application* app) { app_ = app; }

void Control::PropagateContext(Window* window, Application* app) {
  window_ = window;
  app_ = app;
  for (auto& child : children_) {
    child->PropagateContext(window, app);
  }
  if (owned_popup_ != nullptr) {
    owned_popup_->PropagateContext(window, app);
  }
}

void Control::WalkStatic(const std::function<void(Control&)>& fn) {
  fn(*this);
  for (auto& child : children_) {
    child->WalkStatic(fn);
  }
  if (owned_popup_ != nullptr) {
    owned_popup_->WalkStatic(fn);
  }
}

}  // namespace gsim
