// Control: one UI widget in the simulated application.
//
// A Control implements the uia::Element contract and carries imperative GUI
// semantics: what a click does (reveal a menu, switch a tab, open a dialog,
// invoke an application command, ...), whether it hosts a popup subtree, and
// which UIA patterns it supports. Applications (src/apps) are trees of these.
#ifndef SRC_GUI_CONTROL_H_
#define SRC_GUI_CONTROL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/gui/geometry.h"
#include "src/uia/element.h"

namespace gsim {

class Application;
class Window;

// What clicking a control does. This is the *mechanism* the paper talks
// about: in an imperative GUI the user must trigger these effects step by
// step; DMI drives them deterministically.
enum class ClickEffect {
  kNone = 0,       // inert (static text, separators)
  kRevealPopup,    // opens this control's popup subtree (menu, dropdown, gallery)
  kSwitchTab,      // activates this tab item, swapping visible panels
  kOpenDialog,     // opens the dialog window registered under dialog_id
  kCloseWindow,    // closes the containing window (OK / Cancel / Close)
  kToggle,         // flips toggle state, then runs command (if any)
  kSelect,         // selects this item within its selection container
  kCommand,        // functional endpoint: dispatches command_ to the app
  kExternal,       // leaves the application (web link, account page)
  kRevealExisting, // re-reveals an existing subtree (creates UNG back-edges)
  kClosePane,      // closes the nearest enclosing persistent pane
};

// How an OK/Close/Cancel button disposes of its window.
enum class CloseDisposition { kCommit = 0, kDismiss = 1, kCancel = 2 };

class Control final : public uia::Element {
 public:
  Control(std::string name, uia::ControlType type);
  ~Control() override;

  Control(const Control&) = delete;
  Control& operator=(const Control&) = delete;

  // ----- uia::Element ------------------------------------------------------
  std::string Name() const override;
  std::string AutomationId() const override { return automation_id_; }
  uia::ControlType Type() const override { return type_; }
  std::string HelpText() const override { return help_text_; }
  bool IsEnabled() const override { return enabled_; }
  bool IsOffscreen() const override;
  std::vector<uia::Element*> Children() const override;
  uia::Element* Parent() const override;
  uint64_t RuntimeId() const override { return runtime_id_; }
  uia::Pattern* GetPattern(uia::PatternId id) override;

  // ----- structure ----------------------------------------------------------
  // Adds a static child (always attached while this control is attached).
  Control* AddChild(std::unique_ptr<Control> child);
  // Convenience: creates and adds a child.
  Control* NewChild(std::string name, uia::ControlType type);

  // Detaches and returns a static child subtree (nullptr if `child` is not a
  // direct child). Models an app update deleting a feature group. Only legal
  // before the application captures fresh state — the factory reset's touched
  // list keeps raw pointers into the tree, so post-capture removal would
  // dangle.
  std::unique_ptr<Control> RemoveChild(Control* child);

  // Attaches an owned popup subtree revealed by clicking this control.
  Control* SetPopup(std::unique_ptr<Control> popup_root);
  // Attaches a *shared* popup subtree owned by the application. Multiple
  // controls may share one subtree — this is how merge nodes arise in the
  // UI Navigation Graph (paper §2.4 Challenge #1).
  void SetSharedPopup(Control* shared_root);

  Control* popup() const { return owned_popup_ ? owned_popup_.get() : shared_popup_; }
  bool popup_open() const { return popup_open_; }

  // Persistent popups (task panes like PowerPoint's Format Background) stay
  // open across unrelated clicks; transient menus close. Default: transient.
  Control* SetPopupPersistent(bool persistent);
  bool popup_persistent() const { return popup_persistent_; }

  // Floating surfaces (shared palettes, flyouts) report a null public
  // Parent() — like UIA popup windows parented to the desktop — so their
  // descendants' ancestor paths are independent of which host opened them.
  // This is what makes a shared palette a single merge node in the UNG.
  void SetFloating(bool floating) { floating_ = floating; }
  bool floating() const { return floating_; }
  const std::vector<Control*>& StaticChildren() const { return child_ptrs_; }

  // The true (structural) name, unaffected by instability injection.
  const std::string& TrueName() const { return name_; }

  // Dynamic renaming: some applications relabel controls at runtime in ways
  // no offline model can predict (paper §6 "(In)accurate navigation
  // topology", e.g. Word's Find-and-Replace "Next" becoming "Go To").
  void RenameTo(std::string new_name);

  Control* parent_control() const { return parent_; }

  // ----- configuration (used by app builders) -------------------------------
  Control* SetAutomationId(std::string id);
  Control* SetHelpText(std::string text);
  Control* SetEnabled(bool enabled);
  Control* SetClickEffect(ClickEffect effect);
  Control* SetCommand(std::string command);
  Control* SetDialogId(std::string dialog_id);
  Control* SetCloseDisposition(CloseDisposition d);
  Control* SetRevealTarget(Control* target);
  // Marks the control as functional even though clicks route through the app
  // (used by cells, gallery items).
  Control* SetRect(Rect rect);

  ClickEffect click_effect() const { return click_effect_; }
  const std::string& command() const { return command_; }
  const std::string& dialog_id() const { return dialog_id_; }
  CloseDisposition close_disposition() const { return close_disposition_; }
  Control* reveal_target() const { return reveal_target_; }

  // Attaches a custom pattern implementation (e.g. a TextPattern over the
  // Word document model). The control takes ownership.
  void AttachPattern(std::unique_ptr<uia::Pattern> pattern);

  // ----- runtime state (driven by Application) -------------------------------
  void SetPopupOpen(bool open);
  void SetWindow(Window* window);
  Window* window() const { return window_; }
  void SetApplication(Application* app);
  Application* application() const { return app_; }

  // Selection / toggle value used by generic pattern adapters. Setters bump
  // the application's UI-state generation on an actual change: [on]/[selected]
  // states feed the screen listing, so generation-keyed caches of the prompt
  // context must invalidate (DESIGN.md §9).
  bool toggled() const { return toggled_; }
  void set_toggled(bool t);
  bool selected() const { return selected_; }
  void set_selected(bool s);

  // Current on-screen rectangle (synthetic layout).
  Rect rect() const { return rect_; }

  // Explicit offscreen override (e.g. rows scrolled out of a viewport).
  void SetForcedOffscreen(bool offscreen);
  bool forced_offscreen() const { return forced_offscreen_; }

  // Text value for Edit-type controls (backs the generic ValuePattern).
  // Value changes feed the passive data payload; the setter bumps the UI
  // generation when the value actually changes.
  const std::string& text_value() const { return text_value_; }
  void set_text_value(std::string v);

  // Numeric range for Slider/Spinner/ProgressBar (backs RangeValuePattern).
  double range_value() const { return range_value_; }
  void set_range_value(double v);
  Control* SetRange(double min, double max) {
    range_min_ = min;
    range_max_ = max;
    return this;
  }
  double range_min() const { return range_min_; }
  double range_max() const { return range_max_; }

  // ----- factory-reset support (Application::ResetToFreshState) --------------
  // Snapshot of every field a run can mutate, including parent/window wiring
  // (a shared popup adopts its opening host as parent, see SetPopupOpen).
  // Captured right after construction. Every setter of one of these fields
  // queues the control once on its application's touched list when the value
  // actually changes after capture, and a factory reset restores only the
  // queued controls. Restore writes fields directly — the application bumps
  // the UI generation once for the whole reset.
  struct FreshState {
    std::string name;
    bool enabled = true;
    bool forced_offscreen = false;
    bool popup_open = false;
    bool toggled = false;
    bool selected = false;
    std::string text_value;
    double range_value = 0.0;
    size_t child_count = 0;
    Control* parent = nullptr;
    Window* window = nullptr;
  };
  FreshState CaptureFreshState() const;
  void RestoreFreshState(const FreshState& state);

  // Recursively wires window/app pointers through a subtree (called when a
  // subtree is attached to a window or application).
  void PropagateContext(Window* window, Application* app);

  // Walks the *static* subtree (children + owned popups, regardless of open
  // state). Used by builders and by eager dialog registration.
  void WalkStatic(const std::function<void(Control&)>& fn);

 private:
  friend class Application;

  static uint64_t NextRuntimeId();

  // Queues this control on its application's touched list, once per reset
  // epoch, if it has a snapshot. A control added after CaptureFreshState has
  // none and never queues: its parent's restore destroys it.
  void MarkTouched();
  static constexpr uint32_t kNoSnapshot = UINT32_MAX;

  std::string name_;
  uia::ControlType type_;
  std::string automation_id_;
  std::string help_text_;
  bool enabled_ = true;
  bool forced_offscreen_ = false;
  uint64_t runtime_id_;

  Control* parent_ = nullptr;
  std::vector<std::unique_ptr<Control>> children_;
  std::vector<Control*> child_ptrs_;  // cached raw view of children_

  std::unique_ptr<Control> owned_popup_;
  Control* shared_popup_ = nullptr;
  bool popup_open_ = false;
  bool popup_persistent_ = false;
  bool floating_ = false;

  ClickEffect click_effect_ = ClickEffect::kNone;
  std::string command_;
  std::string dialog_id_;
  CloseDisposition close_disposition_ = CloseDisposition::kDismiss;
  Control* reveal_target_ = nullptr;

  bool toggled_ = false;
  bool selected_ = false;
  std::string text_value_;
  double range_value_ = 0.0;
  double range_min_ = 0.0;
  double range_max_ = 100.0;

  Rect rect_;
  Window* window_ = nullptr;
  Application* app_ = nullptr;

  uint32_t fresh_index_ = kNoSnapshot;  // this control's snapshot in its app
  bool touched_ = false;                // queued on the app's touched list

  std::map<uia::PatternId, std::unique_ptr<uia::Pattern>> patterns_;
};

}  // namespace gsim

#endif  // SRC_GUI_CONTROL_H_
