#include "src/gui/application.h"

#include <algorithm>
#include <cassert>

#include "src/gui/instability.h"
#include "src/support/logging.h"
#include "src/support/metrics.h"

namespace gsim {

// Desktop root element: children are the roots of open windows, bottom-most
// first. Window roots report a null Parent(), so upward walks stop at the
// window — matching UIA, where top-level windows are desktop children.
class Application::DesktopRoot final : public uia::Element {
 public:
  explicit DesktopRoot(Application* app) : app_(app) {}

  std::string Name() const override { return app_->name() + " Desktop"; }
  std::string AutomationId() const override { return "desktop"; }
  uia::ControlType Type() const override { return uia::ControlType::kPane; }
  std::string HelpText() const override { return ""; }
  bool IsEnabled() const override { return true; }
  bool IsOffscreen() const override { return false; }
  std::vector<uia::Element*> Children() const override {
    std::vector<uia::Element*> out;
    for (Window* w : app_->open_window_stack_) {
      out.push_back(&w->root());
    }
    return out;
  }
  uia::Element* Parent() const override { return nullptr; }
  uint64_t RuntimeId() const override { return 0; }
  uia::Pattern* GetPattern(uia::PatternId) override { return nullptr; }

 private:
  Application* app_;
};

Application::Application(std::string name)
    : name_(std::move(name)),
      main_window_(std::make_unique<Window>(name_, /*modal=*/false)),
      desktop_root_(std::make_unique<DesktopRoot>(this)) {
  main_window_->SetOpen(true);
  main_window_->SetApplication(this);
  open_window_stack_.push_back(main_window_.get());
}

Application::~Application() = default;

void Application::FinalizeMainWindow() { main_window_->SetApplication(this); }

Window* Application::RegisterDialog(const std::string& dialog_id,
                                    std::unique_ptr<Window> window) {
  assert(window != nullptr);
  Window* raw = window.get();
  raw->SetApplication(this);
  dialogs_[dialog_id] = std::move(window);
  return raw;
}

Window* Application::FindDialog(const std::string& dialog_id) {
  auto it = dialogs_.find(dialog_id);
  return it == dialogs_.end() ? nullptr : it->second.get();
}

Control* Application::RegisterSharedSubtree(std::unique_ptr<Control> root) {
  assert(root != nullptr);
  Control* raw = root.get();
  raw->SetFloating(true);
  raw->PropagateContext(nullptr, this);
  shared_subtrees_.push_back(std::move(root));
  return raw;
}

std::vector<std::pair<std::string, const Window*>> Application::DialogEntries() const {
  std::vector<std::pair<std::string, const Window*>> out;
  out.reserve(dialogs_.size());
  for (const auto& [id, dialog] : dialogs_) {
    out.emplace_back(id, dialog.get());
  }
  return out;
}

std::vector<const Control*> Application::SharedSubtreeRoots() const {
  std::vector<const Control*> out;
  out.reserve(shared_subtrees_.size());
  for (const auto& shared : shared_subtrees_) {
    out.push_back(shared.get());
  }
  return out;
}

uia::Element& Application::AccessibilityRoot() { return *desktop_root_; }

Window* Application::TopWindow() {
  if (open_window_stack_.empty()) {
    return nullptr;
  }
  return open_window_stack_.back();
}

bool Application::IsAttached(const Control& control) const {
  const Control* node = &control;
  while (true) {
    Control* parent = node->parent_control();
    if (parent == nullptr) {
      // Reached a root; it must be the root of an open window.
      Window* w = node->window();
      return w != nullptr && w->is_open() && node == &w->root();
    }
    // If we are the parent's popup subtree root, the popup must be open and
    // must currently point at us (shared popups can be re-parented).
    if (parent->popup() == node) {
      if (!parent->popup_open()) {
        return false;
      }
    } else {
      // Must be a static child.
      const auto& kids = parent->StaticChildren();
      if (std::find(kids.begin(), kids.end(), node) == kids.end()) {
        return false;
      }
    }
    node = parent;
  }
}

bool Application::PopupChainContains(Control* host, const Control& c) const {
  // True if `c` is the host itself or lives inside the host's popup subtree
  // (following nested popups).
  if (host == &c) {
    return true;
  }
  for (const Control* node = &c; node != nullptr; node = node->parent_control()) {
    if (node == host) {
      return true;
    }
  }
  return false;
}

void Application::ClosePopupsNotContaining(const Control* keep) {
  while (!open_popup_hosts_.empty()) {
    Control* top = open_popup_hosts_.back();
    if (keep != nullptr && PopupChainContains(top, *keep)) {
      break;
    }
    top->SetPopupOpen(false);
    open_popup_hosts_.pop_back();
  }
}

void Application::ClosePopupsFrom(Control& host) {
  // Close popups from the innermost down to (and including) host's popup.
  while (!open_popup_hosts_.empty()) {
    Control* top = open_popup_hosts_.back();
    top->SetPopupOpen(false);
    open_popup_hosts_.pop_back();
    if (top == &host) {
      break;
    }
  }
}

void Application::CloseAllPopups() { ClosePopupsNotContaining(nullptr); }

void Application::CloseWindow(Window& window, bool commit) {
  (void)commit;  // command side effects ran from the button's command_ already
  if (&window == main_window_.get()) {
    return;  // the main window never closes in our scenarios
  }
  auto it = std::find(open_window_stack_.begin(), open_window_stack_.end(), &window);
  if (it == open_window_stack_.end()) {
    return;
  }
  window.SetOpen(false);
  open_window_stack_.erase(it);
  BumpUiGeneration();
  if (focused_ != nullptr && focused_->window() == &window) {
    focused_ = nullptr;
  }
  if (instability_ != nullptr && instability_->DropsWindowEvent()) {
    // Dropped UIA event: listeners never hear the window closed; callers must
    // recover by re-capturing the tree.
    support::CountMetric("robust.fault_event_drop");
    support::CountMetric("robust.fault_event_drop", {{"app", name_}});
    return;
  }
  for (const WindowListener& listener : window_listeners_) {
    listener(window, /*opened=*/false);
  }
}

void Application::ResetUiState() {
  CloseAllPopups();
  // Persistent panes are not on the transient stack; close them explicitly.
  // Each close removes the pane from the list (TrackPersistentPane).
  while (!open_persistent_panes_.empty()) {
    open_persistent_panes_.back()->SetPopupOpen(false);
  }
  while (open_window_stack_.size() > 1) {
    Window* top = open_window_stack_.back();
    top->SetOpen(false);
    open_window_stack_.pop_back();
  }
  focused_ = nullptr;
  external_state_ = false;
  BumpUiGeneration();
  OnUiReset();
}

void Application::TrackPersistentPane(Control& pane, bool open) {
  if (open) {
    open_persistent_panes_.push_back(&pane);
  } else {
    std::erase(open_persistent_panes_, &pane);
  }
}

void Application::WalkAllControls(const std::function<void(Control&)>& fn) {
  main_window_->root().WalkStatic(fn);
  for (auto& [id, dialog] : dialogs_) {
    (void)id;
    dialog->root().WalkStatic(fn);
  }
  for (auto& shared : shared_subtrees_) {
    shared->WalkStatic(fn);
  }
}

void Application::CaptureFreshState() {
  if (fresh_captured_) {
    return;
  }
  WalkAllControls([this](Control& c) {
    c.fresh_index_ = static_cast<uint32_t>(fresh_states_.size());
    fresh_states_.push_back(c.CaptureFreshState());
  });
  fresh_listener_count_ = window_listeners_.size();
  fresh_captured_ = true;
}

void Application::ResetToFreshState() {
  assert(fresh_captured_ && "CaptureFreshState() must run before ResetToFreshState()");
  SetInstability(nullptr);
  ResetUiState();
  // Only the touched controls can differ from their snapshots. A restore
  // destroys the control's run-time children, which never queue themselves.
  for (Control* control : touched_) {
    control->RestoreFreshState(fresh_states_[control->fresh_index_]);
  }
  touched_.clear();
  reveal_ticks_.clear();
  reveal_until_ = 0;
  tick_ = 0;
  stats_ = ActionStats{};
  // Listeners registered during a run (the ripper is the only producer) are
  // dropped; construction-time listeners survive.
  if (window_listeners_.size() > fresh_listener_count_) {
    window_listeners_.resize(fresh_listener_count_);
  }
  OnFactoryReset();
  BumpUiGeneration();
}

uint64_t Application::UiaStateChecksum() {
  static const std::string kNone;
  StateHash h;
  WalkAllControls([&h](Control& c) {
    h.MixU64(0x9e3779b97f4a7c15ull);  // per-control boundary
    h.Mix(c.TrueName());
    h.Mix(c.AutomationId());
    h.MixU64(static_cast<uint64_t>(c.Type()));
    h.MixBool(c.enabled_);
    h.MixBool(c.forced_offscreen_);
    h.MixBool(c.popup_open());
    h.MixBool(c.toggled());
    h.MixBool(c.selected());
    h.Mix(c.text_value());
    h.MixDouble(c.range_value());
    h.MixU64(c.StaticChildren().size());
    // Wiring, by name: an opened shared popup adopts its host and window.
    const Control* parent = c.parent_control();
    h.Mix(parent != nullptr ? parent->TrueName() : kNone);
    h.Mix(c.window() != nullptr ? c.window()->title() : kNone);
  });
  h.MixU64(open_window_stack_.size());
  for (Window* w : open_window_stack_) {
    h.Mix(w->title());
  }
  h.MixU64(open_popup_hosts_.size());
  h.MixBool(focused_ != nullptr);
  if (focused_ != nullptr) {
    h.Mix(focused_->TrueName());
  }
  h.MixBool(external_state_);
  h.MixU64(tick_);
  h.MixU64(reveal_ticks_.size());
  h.MixU64(stats_.clicks);
  h.MixU64(stats_.key_chords);
  h.MixU64(stats_.text_inputs);
  h.MixU64(stats_.drags);
  h.MixU64(stats_.commands);
  h.MixBool(instability_ != nullptr);
  AppStateDigest(h);
  return h.digest();
}

void Application::SetFocus(Control* control) { focused_ = control; }

std::string Application::DecorateName(const Control& control) const {
  if (instability_ == nullptr) {
    return control.TrueName();
  }
  return instability_->DecorateName(control);
}

namespace {

support::ErrorDetail TransientDetail(const Control& control,
                                     const char* pattern_name) {
  support::ErrorDetail d;
  d.control_name = control.TrueName();
  if (pattern_name != nullptr) {
    d.required_pattern = pattern_name;
  }
  d.retryable = true;
  return d;
}

}  // namespace

support::Status Application::CheckPatternAvailable(Control& control,
                                                   const char* pattern_name) {
  if (instability_ == nullptr) {
    return support::Status::Ok();
  }
  if (!instability_->PatternTransientlyUnavailable(control, tick_)) {
    return support::Status::Ok();
  }
  support::CountMetric("robust.fault_pattern");
  support::CountMetric("robust.fault_pattern", {{"app", name_}});
  return support::UnavailableError("control '" + control.TrueName() + "' " +
                                   pattern_name + " call failed transiently")
      .WithDetail(TransientDetail(control, pattern_name));
}

support::Status Application::Click(Control& control) {
  if (instability_ != nullptr && instability_->CallHitsFreeze(tick_)) {
    support::CountMetric("robust.fault_freeze");
    support::CountMetric("robust.fault_freeze", {{"app", name_}});
    return support::UnavailableError("application is not responding")
        .WithDetail(TransientDetail(control, nullptr));
  }
  if (external_state_) {
    return support::FailedPreconditionError(
        "application is in an external state (a previous click left the app)");
  }
  if (!IsAttached(control)) {
    return support::NotFoundError("control '" + control.TrueName() +
                                  "' is not currently visible");
  }
  // Modal dialogs block interaction with lower windows (Windows semantics).
  Window* top = TopWindow();
  if (top != nullptr && top->modal() && control.window() != top) {
    return support::FailedPreconditionError(
        "control '" + control.TrueName() + "' is blocked by the modal dialog '" +
        top->title() + "'");
  }
  if (IsPendingReveal(control)) {
    return support::UnavailableError("control '" + control.TrueName() +
                                     "' is still loading");
  }
  if (!control.IsEnabled()) {
    return support::FailedPreconditionError(
        "control '" + control.TrueName() + "' (" +
        std::string(uia::ControlTypeName(control.Type())) + ") is disabled");
  }
  if (instability_ != nullptr && instability_->ElementReferenceStale(control)) {
    // The interaction raced a UI mutation: the generation bump invalidates
    // every captured synthesized id, so the caller must re-capture and
    // re-locate before retrying.
    BumpUiGeneration();
    support::CountMetric("robust.fault_stale_ref");
    support::CountMetric("robust.fault_stale_ref", {{"app", name_}});
    return support::UnavailableError("element reference for '" + control.TrueName() +
                                     "' is stale (the UI changed underneath it)")
        .WithDetail(TransientDetail(control, nullptr));
  }
  {
    support::Status pattern = CheckPatternAvailable(
        control, control.click_effect() == ClickEffect::kToggle ? "TogglePattern"
                                                                : "InvokePattern");
    if (!pattern.ok()) {
      return pattern;
    }
  }
  if (instability_ != nullptr && instability_->ClickSilentlyFails(control)) {
    ++stats_.clicks;
    return support::Status::Ok();  // the hazard: click "succeeds" but does nothing
  }
  ++stats_.clicks;
  return ClickImpl(control);
}

support::Status Application::ClickImpl(Control& control) {
  switch (control.click_effect()) {
    case ClickEffect::kNone: {
      ClosePopupsNotContaining(&control);
      if (control.Type() == uia::ControlType::kEdit ||
          control.Type() == uia::ControlType::kComboBox) {
        SetFocus(&control);
      }
      return support::Status::Ok();
    }
    case ClickEffect::kRevealPopup: {
      ClosePopupsNotContaining(&control);
      if (control.popup_open()) {
        return support::Status::Ok();
      }
      control.SetPopupOpen(true);
      // Persistent panes survive unrelated clicks; only transient menus go
      // on the auto-close stack.
      if (!control.popup_persistent()) {
        open_popup_hosts_.push_back(&control);
      }
      if (instability_ != nullptr) {
        uint64_t delay = instability_->PopupRevealDelay(control);
        if (delay > 0 && control.popup() != nullptr) {
          SetRevealTick(*control.popup(), tick_ + delay);
        }
      }
      return support::Status::Ok();
    }
    case ClickEffect::kSwitchTab: {
      ClosePopupsNotContaining(nullptr);
      Control* parent = control.parent_control();
      if (parent != nullptr) {
        for (Control* sib : parent->StaticChildren()) {
          if (sib != &control && sib->Type() == uia::ControlType::kTabItem) {
            sib->set_selected(false);
            sib->SetPopupOpen(false);
          }
        }
      }
      control.set_selected(true);
      control.SetPopupOpen(true);
      return support::Status::Ok();
    }
    case ClickEffect::kOpenDialog: {
      CloseAllPopups();
      Window* dialog = FindDialog(control.dialog_id());
      if (dialog == nullptr) {
        return support::InternalError("no dialog registered under id '" +
                                      control.dialog_id() + "'");
      }
      if (!dialog->is_open()) {
        dialog->SetOpen(true);
        open_window_stack_.push_back(dialog);
        BumpUiGeneration();
        if (instability_ != nullptr && instability_->DropsWindowEvent()) {
          support::CountMetric("robust.fault_event_drop");
          support::CountMetric("robust.fault_event_drop", {{"app", name_}});
        } else {
          for (const WindowListener& listener : window_listeners_) {
            listener(*dialog, /*opened=*/true);
          }
        }
      }
      return support::Status::Ok();
    }
    case ClickEffect::kCloseWindow: {
      Window* w = control.window();
      if (w == nullptr) {
        return support::InternalError("close button outside any window");
      }
      support::Status status = support::Status::Ok();
      if (!control.command().empty()) {
        ++stats_.commands;
        status = ExecuteCommand(control, control.command());
      }
      CloseWindow(*w, control.close_disposition() == CloseDisposition::kCommit);
      return status;
    }
    case ClickEffect::kToggle: {
      control.set_toggled(!control.toggled());
      if (!control.command().empty()) {
        ++stats_.commands;
        return ExecuteCommand(control, control.command());
      }
      return support::Status::Ok();
    }
    case ClickEffect::kSelect: {
      return SelectControl(control, /*additive=*/false);
    }
    case ClickEffect::kCommand: {
      ++stats_.commands;
      support::Status status = ExecuteCommand(control, control.command());
      // Menu semantics: invoking a functional item dismisses transient menus.
      ClosePopupsNotContaining(nullptr);
      return status;
    }
    case ClickEffect::kExternal: {
      external_state_ = true;
      return support::Status::Ok();
    }
    case ClickEffect::kClosePane: {
      // Close the nearest enclosing persistent pane.
      for (Control* node = control.parent_control(); node != nullptr;
           node = node->parent_control()) {
        Control* host = node->parent_control();
        if (host != nullptr && host->popup() == node && host->popup_persistent()) {
          host->SetPopupOpen(false);
          return support::Status::Ok();
        }
      }
      return support::FailedPreconditionError("no enclosing pane to close");
    }
    case ClickEffect::kRevealExisting: {
      Control* target = control.reveal_target();
      if (target == nullptr) {
        return support::InternalError("reveal target missing");
      }
      // Open every popup host on the target's ancestor chain.
      std::vector<Control*> chain;
      for (Control* node = target; node != nullptr; node = node->parent_control()) {
        chain.push_back(node);
      }
      std::reverse(chain.begin(), chain.end());
      for (size_t i = 0; i + 1 < chain.size(); ++i) {
        Control* parent = chain[i];
        Control* child = chain[i + 1];
        if (parent->popup() == child && !parent->popup_open()) {
          parent->SetPopupOpen(true);
          open_popup_hosts_.push_back(parent);
        }
      }
      return support::Status::Ok();
    }
  }
  return support::InternalError("unhandled click effect");
}

support::Status Application::SelectControl(Control& control, bool additive) {
  if (!IsAttached(control)) {
    return support::NotFoundError("control '" + control.TrueName() +
                                  "' is not currently visible");
  }
  if (!additive) {
    // Exclusive selection clears every same-type item within the nearest
    // selection container (List / DataGrid / Tab / Tree / Table), so a grid
    // click deselects cells in other rows too. Falls back to the parent.
    auto is_selection_container = [](uia::ControlType t) {
      return t == uia::ControlType::kList || t == uia::ControlType::kDataGrid ||
             t == uia::ControlType::kTable || t == uia::ControlType::kTree ||
             t == uia::ControlType::kTab;
    };
    Control* scope = control.parent_control();
    while (scope != nullptr && !is_selection_container(scope->Type())) {
      scope = scope->parent_control();
    }
    if (scope == nullptr) {
      scope = control.parent_control();
    }
    if (scope != nullptr) {
      scope->WalkStatic([&](Control& c) {
        if (&c != &control && c.Type() == control.Type()) {
          c.set_selected(false);
        }
      });
    }
  }
  control.set_selected(true);
  OnSelectionChanged(control);
  return support::Status::Ok();
}

support::Status Application::DeselectControl(Control& control) {
  control.set_selected(false);
  OnSelectionChanged(control);
  return support::Status::Ok();
}

support::Status Application::PressKey(const std::string& chord) {
  if (instability_ != nullptr && instability_->CallHitsFreeze(tick_)) {
    support::CountMetric("robust.fault_freeze");
    support::CountMetric("robust.fault_freeze", {{"app", name_}});
    support::ErrorDetail d;
    d.retryable = true;
    return support::UnavailableError("application is not responding")
        .WithDetail(std::move(d));
  }
  if (external_state_) {
    return support::FailedPreconditionError("application is in an external state");
  }
  ++stats_.key_chords;
  if (chord == "ESC") {
    if (!open_popup_hosts_.empty()) {
      Control* top = open_popup_hosts_.back();
      top->SetPopupOpen(false);
      open_popup_hosts_.pop_back();
      return support::Status::Ok();
    }
    if (open_window_stack_.size() > 1) {
      CloseWindow(*open_window_stack_.back(), /*commit=*/false);
      return support::Status::Ok();
    }
    return support::Status::Ok();
  }
  return OnKeyChord(chord);
}

support::Status Application::TypeText(const std::string& text) {
  if (instability_ != nullptr && instability_->CallHitsFreeze(tick_)) {
    support::CountMetric("robust.fault_freeze");
    support::CountMetric("robust.fault_freeze", {{"app", name_}});
    support::ErrorDetail d;
    d.retryable = true;
    return support::UnavailableError("application is not responding")
        .WithDetail(std::move(d));
  }
  if (external_state_) {
    return support::FailedPreconditionError("application is in an external state");
  }
  if (focused_ == nullptr) {
    return support::FailedPreconditionError("no edit control is focused");
  }
  ++stats_.text_inputs;
  focused_->set_text_value(text);
  OnValueChanged(*focused_);
  return support::Status::Ok();
}

std::vector<std::string> Application::OpenAncestorNames(const Control& control) const {
  std::vector<std::string> names;
  for (const Control* node = control.parent_control(); node != nullptr;
       node = node->parent_control()) {
    names.push_back(node->TrueName());
  }
  std::reverse(names.begin(), names.end());
  return names;
}

void Application::Tick() {
  ++tick_;
  if (tick_ > reveal_until_) {
    return;  // every reveal has matured already
  }
  for (const auto& entry : reveal_ticks_) {
    if (entry.second == tick_) {
      BumpUiGeneration();  // a slow-loading popup appears on screen
      return;
    }
  }
}

void Application::SetRevealTick(Control& control, uint64_t tick) {
  reveal_ticks_[control.RuntimeId()] = tick;
  reveal_until_ = std::max(reveal_until_, tick);
  BumpUiGeneration();  // the control is offscreen until the tick passes
}

bool Application::IsPendingReveal(const Control& control) const {
  if (tick_ >= reveal_until_) {
    return false;  // every reveal has matured
  }
  // A control is pending if it or any ancestor popup root is still loading.
  for (const Control* node = &control; node != nullptr; node = node->parent_control()) {
    auto it = reveal_ticks_.find(node->RuntimeId());
    if (it != reveal_ticks_.end() && tick_ < it->second) {
      return true;
    }
  }
  return false;
}

support::Status Application::ExecuteCommand(Control& source, const std::string& command) {
  (void)source;
  DMI_LOG(kDebug) << "unhandled command: " << command;
  return support::Status::Ok();
}

support::Status Application::OnKeyChord(const std::string& chord) {
  (void)chord;
  return support::Status::Ok();
}

void Application::OnValueChanged(Control& control) { (void)control; }

void Application::OnSelectionChanged(Control& control) { (void)control; }

void Application::OnUiReset() {}

void Application::OnFactoryReset() {}

void Application::AppStateDigest(StateHash& hash) const { (void)hash; }

}  // namespace gsim
