// Application: the simulated desktop application runtime.
//
// Owns the main window, eagerly-registered dialog windows, and shared popup
// subtrees (e.g. a color palette referenced from several menus — the source of
// merge nodes in the UI Navigation Graph). Interprets clicks, key chords and
// text input; dispatches functional commands to the concrete app subclass
// (WordSim / ExcelSim / PpointSim), which mutates its document model.
#ifndef SRC_GUI_APPLICATION_H_
#define SRC_GUI_APPLICATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/gui/control.h"
#include "src/gui/window.h"
#include "src/support/status.h"
#include "src/uia/element.h"

namespace gsim {

class InstabilityInjector;

// Interaction statistics, used for modeling-cost and step accounting.
struct ActionStats {
  uint64_t clicks = 0;
  uint64_t key_chords = 0;
  uint64_t text_inputs = 0;
  uint64_t drags = 0;
  uint64_t commands = 0;
};

// FNV-1a accumulator used for UIA-tree state checksums (pool reset
// verification, DESIGN.md §10). Deliberately excludes runtime ids, which
// differ between instances of the same application.
class StateHash {
 public:
  void MixU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<uint8_t>(v >> (i * 8)));
    }
  }
  void MixBool(bool b) { MixByte(b ? 1 : 0); }
  void MixDouble(double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d), "double must be 64-bit");
    __builtin_memcpy(&bits, &d, sizeof(bits));
    MixU64(bits);
  }
  void Mix(const std::string& s) {
    MixU64(s.size());
    for (char c : s) {
      MixByte(static_cast<uint8_t>(c));
    }
  }
  // Bulk variant for large payloads (model-artifact checksums, DESIGN.md
  // §14): FNV-1a over 8-byte words with a byte-FNV tail. The per-byte chain
  // is inherently serial (each multiply depends on the last), so word-sized
  // steps are what make checksumming a multi-megabyte artifact cheap enough
  // for the cold-load path. Not interchangeable with Mix() — word-FNV and
  // byte-FNV digests differ by construction.
  void MixBytes(const char* data, size_t n) {
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      uint64_t word = 0;
      __builtin_memcpy(&word, data + i, 8);
      h_ ^= word;
      h_ *= 1099511628211ull;
    }
    for (; i < n; ++i) {
      MixByte(static_cast<uint8_t>(data[i]));
    }
  }
  uint64_t digest() const { return h_; }

 private:
  void MixByte(uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
  uint64_t h_ = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
};

class Application {
 public:
  explicit Application(std::string name);
  virtual ~Application();

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  const std::string& name() const { return name_; }

  // ----- structure -----------------------------------------------------------
  Window& main_window() { return *main_window_; }

  // Registers a dialog window under `dialog_id`; controls with
  // SetDialogId(dialog_id) open it. The window is owned by the application.
  Window* RegisterDialog(const std::string& dialog_id, std::unique_ptr<Window> window);
  Window* FindDialog(const std::string& dialog_id);

  // Registers a subtree shared between several popup hosts (merge node).
  Control* RegisterSharedSubtree(std::unique_ptr<Control> root);

  // Stable enumeration of registered dialogs (sorted by dialog id) and shared
  // subtrees (registration order). Read-only structural views used by the
  // delta ripper's checksum walk (DESIGN.md §15).
  std::vector<std::pair<std::string, const Window*>> DialogEntries() const;
  std::vector<const Control*> SharedSubtreeRoots() const;

  // ----- accessibility --------------------------------------------------------
  // The desktop root: its children are the roots of all open windows, topmost
  // last. This is what the ripper, the DMI executor and the baseline labeler
  // capture.
  uia::Element& AccessibilityRoot();

  // Topmost open window (modal dialogs stack above the main window).
  Window* TopWindow();
  const std::vector<Window*>& OpenWindows() const { return open_window_stack_; }

  // True if the control sits on an open window with every popup host on its
  // ancestor chain open (i.e. it can actually be clicked right now).
  bool IsAttached(const Control& control) const;

  // ----- interaction (the imperative mechanism) -------------------------------
  // Interprets one click on `control` per its ClickEffect.
  support::Status Click(Control& control);

  // Key chord: "ESC", "ENTER", "CTRL+A", ... ESC is handled generically
  // (closes the top transient popup, else cancels the top dialog); everything
  // else goes to OnKeyChord.
  support::Status PressKey(const std::string& chord);

  // Replaces the focused edit control's value (a keyboard "type-over").
  support::Status TypeText(const std::string& text);

  // Transient pattern-failure gate (Hostile instability, DESIGN.md §11):
  // kUnavailable (retryable, with ErrorDetail naming `pattern_name`) while
  // `control` sits inside an open failure window; OK otherwise. Click()
  // applies it to Invoke/Toggle itself; pattern adapters that bypass Click()
  // (ScrollPattern) call it explicitly.
  support::Status CheckPatternAvailable(Control& control, const char* pattern_name);

  // Selection plumbing used by SelectionItem adapters and by Click(kSelect).
  support::Status SelectControl(Control& control, bool additive);
  support::Status DeselectControl(Control& control);

  // Closes the popup opened from `host` and everything above it.
  void ClosePopupsFrom(Control& host);
  void CloseAllPopups();

  // Closes `window` (dialogs only; the main window stays). `commit` tells
  // whether OK-semantics were used.
  void CloseWindow(Window& window, bool commit);

  // Restores the initial UI state: closes dialogs, transient popups and open
  // persistent panes (from the list the app keeps as panes open and close),
  // clears focus and the external-state flag. (The ripper uses this as its
  // cheap "restart"; it does not reset the document model.)
  void ResetUiState();

  // ----- factory reset / application pooling (DESIGN.md §10) -----------------
  // Snapshots every control's mutable state right after construction so a
  // pooled instance can later be recycled to an as-constructed state.
  // Idempotent: only the first call records.
  void CaptureFreshState();
  bool fresh_state_captured() const { return fresh_captured_; }

  // Full factory reset: detaches the instability injector, runs
  // ResetUiState(), restores the snapshot of every control on the touched
  // list (the controls whose snapshot fields changed since capture or the
  // last reset; untouched controls already equal their snapshot), clears the
  // logical clock / reveal schedule / action stats, and asks the concrete app
  // to rebuild its document model (OnFactoryReset). Requires a prior
  // CaptureFreshState(). The UI generation stays monotonic (it is bumped, not
  // reset) so generation-keyed caches never alias across leases.
  void ResetToFreshState();

  // Checksum of everything behavior-relevant: the full static control tree
  // (names, values, toggle/selection/popup state, parent and window by
  // name), open windows, focus, external flag, logical clock, action stats,
  // and the concrete app's document model (AppStateDigest). Runtime ids and
  // the UI generation are excluded — they differ between a fresh and a
  // pooled-and-reset instance by construction. "reset == fresh" means equal
  // checksums.
  uint64_t UiaStateChecksum();

  // ----- state ---------------------------------------------------------------
  Control* focused() const { return focused_; }
  void SetFocus(Control* control);

  // True after a kExternal control was clicked; every further interaction
  // fails until ResetUiState() (the app "left" to a browser).
  bool in_external_state() const { return external_state_; }

  const ActionStats& stats() const { return stats_; }
  ActionStats& mutable_stats() { return stats_; }

  // Logical clock advanced by event-loop turns; slow-loading popups become
  // visible only at a later tick.
  uint64_t current_tick() const { return tick_; }
  // Advances the clock one turn. Bumps the UI generation only on the tick
  // where a pending reveal matures (a slow-loading popup appears, once, however
  // many mature together): no other tick changes what is visible or anything
  // that feeds an id, so generation-keyed caches stay warm across it.
  void Tick();

  // ----- UI-state generation -----------------------------------------------
  // Monotonic counter bumped by every mutation that can change the visible
  // accessibility tree or any synthesized control identifier (clicks, key
  // chords, popup/window open/close, renames, scroll-driven occlusion, the
  // tick on which a slow-loading popup appears). Capture caches
  // (ripper::VisibleIndex, gsim::ScreenView) are valid exactly while the
  // generation is unchanged. Not thread-safe: an Application instance is
  // confined to one thread (see DESIGN.md "Performance architecture").
  uint64_t ui_generation() const { return ui_generation_; }
  void BumpUiGeneration() { ++ui_generation_; }

  // ----- window events ---------------------------------------------------------
  // UIA-style window listeners (§4.1: "New top-level or modal windows are
  // detected via process_id and window listeners"). Fired on dialog open and
  // close; the main window never fires.
  using WindowListener = std::function<void(Window&, bool opened)>;
  void AddWindowListener(WindowListener listener) {
    window_listeners_.push_back(std::move(listener));
  }

  // ----- instability -----------------------------------------------------------
  // The injector is borrowed; pass nullptr to disable (default).
  void SetInstability(InstabilityInjector* injector) {
    instability_ = injector;
    BumpUiGeneration();  // decoration changes every accessibility name
  }
  InstabilityInjector* instability() const { return instability_; }

  // Name as seen through the accessibility API right now (may be decorated
  // by the injector: suffixes, shortcut hints, ellipses).
  std::string DecorateName(const Control& control) const;

  // ----- hooks for concrete applications --------------------------------------
  // Functional endpoint dispatch. `source` is the clicked control; concrete
  // apps use its open ancestor chain for path-dependent semantics.
  virtual support::Status ExecuteCommand(Control& source, const std::string& command);

  // Non-ESC key chords (ENTER commits, shortcuts, ...).
  virtual support::Status OnKeyChord(const std::string& chord);

  // An edit control's value changed (typing or ValuePattern::SetValue).
  virtual void OnValueChanged(Control& control);

  // A control was (de)selected; apps use this for context-dependent UI
  // (e.g. PowerPoint's Picture Format tab appears when an image is selected).
  virtual void OnSelectionChanged(Control& control);

  // Called at the end of ResetUiState(); apps restore default pane
  // visibility and other app-managed UI state here.
  virtual void OnUiReset();

  // Called at the end of ResetToFreshState(); concrete apps rebuild their
  // document model to the freshly-constructed state here.
  virtual void OnFactoryReset();

  // Mixes the concrete app's document model into UiaStateChecksum(), so reset
  // verification also covers state that is not visible through control fields
  // (cells, paragraphs, slides, pending dialog values, ...).
  virtual void AppStateDigest(StateHash& hash) const;

  // Names of open popup hosts / windows containing `control`, outermost
  // first. Lets commands resolve path-dependent meaning ("Font Color" vs
  // "Underline Color" hosting the same palette).
  std::vector<std::string> OpenAncestorNames(const Control& control) const;

  // Slow-load support: the control is invisible until this tick.
  void SetRevealTick(Control& control, uint64_t tick);
  // True while the control or an ancestor is still loading. O(1) once every
  // reveal has matured.
  bool IsPendingReveal(const Control& control) const;

 protected:
  // Subclasses call this once their main window tree is built.
  void FinalizeMainWindow();

 private:
  class DesktopRoot;
  friend class Control;  // MarkTouched and SetPopupOpen keep the lists below

  // Adds `pane` to (open) or removes it from (closed) the open persistent
  // panes that ResetUiState closes.
  void TrackPersistentPane(Control& pane, bool open);

  // Visits every statically owned control: main window, all registered
  // dialogs (open or not), and all shared subtrees. Deterministic order.
  void WalkAllControls(const std::function<void(Control&)>& fn);

  // Closes transient popups that do not contain `keep`; pass nullptr to
  // close all.
  void ClosePopupsNotContaining(const Control* keep);
  bool PopupChainContains(Control* host, const Control& c) const;

  support::Status ClickImpl(Control& control);

  std::string name_;
  std::unique_ptr<Window> main_window_;
  std::map<std::string, std::unique_ptr<Window>> dialogs_;
  std::vector<std::unique_ptr<Control>> shared_subtrees_;
  std::vector<Window*> open_window_stack_;  // main window first
  std::vector<Control*> open_popup_hosts_;  // transient menus, innermost last
  std::vector<Control*> open_persistent_panes_;  // persistent popup hosts now open

  std::unique_ptr<DesktopRoot> desktop_root_;
  Control* focused_ = nullptr;
  bool external_state_ = false;
  uint64_t tick_ = 0;
  uint64_t ui_generation_ = 0;
  ActionStats stats_;
  InstabilityInjector* instability_ = nullptr;
  std::vector<WindowListener> window_listeners_;
  std::map<uint64_t, uint64_t> reveal_ticks_;  // runtime id -> visible-at tick
  // The latest tick in reveal_ticks_ (0 when empty): once tick_ reaches it,
  // no reveal is pending and none can mature.
  uint64_t reveal_until_ = 0;

  // Factory-reset snapshots (CaptureFreshState), indexed by each control's
  // fresh_index_, and the controls changed since the last capture or reset,
  // each once. Controls are never removed once captured and run-time
  // children never queue, so the raw pointers stay valid for the app's
  // lifetime.
  std::vector<Control::FreshState> fresh_states_;
  std::vector<Control*> touched_;
  size_t fresh_listener_count_ = 0;
  bool fresh_captured_ = false;
};

}  // namespace gsim

#endif  // SRC_GUI_APPLICATION_H_
