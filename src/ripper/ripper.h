// GUI ripping: automated construction of the UI Navigation Graph (paper §4.1).
//
// Differential capture with DFS exploration: capture the visible accessibility
// set, click a candidate control, capture again; newly visible controls define
// navigation edges. State is restored between explorations by resetting the UI
// and replaying the recorded access path (cheap for an in-process app; the
// paper avoids full restarts the same way via Esc/Close).
//
// Semi-automation mirrors the paper:
//   - an access *blocklist* for controls that leave the application or wedge
//     it (e.g. "Account" opening a browser); hitting one without the
//     blocklist costs an expensive recovery, which the stats record;
//   - *context-aware exploration*: some controls only exist in specific
//     contexts (an image selected); contexts are small setup callbacks and the
//     per-context graphs merge by control id.
//
// Performance: captures and id lookups run through a generation-stamped
// ripper::VisibleIndex (one tree walk per UI-state generation, O(1) lookups) —
// see visible_index.h.
#ifndef SRC_RIPPER_RIPPER_H_
#define SRC_RIPPER_RIPPER_H_

#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/gui/application.h"
#include "src/ripper/visible_index.h"
#include "src/topology/nav_graph.h"

namespace ripper {

struct RipperConfig {
  // Control names never clicked during exploration (§4.1 "Access blocklist").
  std::set<std::string> blocklist;
  // Exploration depth cap (root's children are depth 1).
  int max_depth = 14;
  // Safety cap on distinct explored controls.
  size_t max_explored = 50000;
  // Optional scope filter over *initial* exploration seeds (DESIGN.md §15,
  // delta rip): an initially-visible explorable control only seeds the DFS
  // when the filter accepts its control id. Everything *revealed* while
  // exploring an accepted seed is explored normally — the filter scopes
  // which top-level regions are entered, not what exploration may touch.
  // Null means "explore everything" (full rip). Must be pure.
  std::function<bool(const gsim::Control& control, const std::string& control_id)>
      seed_filter;
};

struct RipContext {
  std::string name;
  // Puts the application into the context (e.g. select an image). Replayed
  // after every state reset while exploring this context.
  std::function<void(gsim::Application&)> setup;
};

struct RipStats {
  uint64_t clicks = 0;
  uint64_t captures = 0;  // logical captures requested (cached or not)
  uint64_t explored = 0;
  uint64_t external_recoveries = 0;  // blocklist misses: expensive restarts
  uint64_t window_events = 0;        // dialog open/close events observed
  uint64_t contexts = 0;
  // Index effectiveness: tree walks actually performed vs. served warm, and
  // O(1) id lookups that replaced full-tree searches.
  uint64_t capture_rebuilds = 0;
  uint64_t capture_cache_hits = 0;
  uint64_t indexed_lookups = 0;
  // Simulated wall-time cost in milliseconds: clicks and captures have
  // real-world latency on a live UI even though the simulator is instant.
  // Calibrated to UIA costs: ~120 ms per click, ~80 ms per capture, 30 s per
  // external recovery (app restart). Charged per *logical* capture, whether
  // the index served it warm or rebuilt (the index speeds up the real
  // wall-clock, which perfbench measures separately).
  double simulated_ms = 0.0;

  // Cache hit-rate over logical captures, in [0,1].
  double CaptureHitRate() const {
    const uint64_t total = capture_rebuilds + capture_cache_hits;
    return total == 0 ? 0.0 : static_cast<double>(capture_cache_hits) / total;
  }
};

class GuiRipper {
 public:
  GuiRipper(gsim::Application& app, RipperConfig config);

  // Publishes the lifetime RipStats onto the global MetricsRegistry as rip.*
  // counters (one registry touch per ripper, off the exploration hot path).
  ~GuiRipper();

  // Rips the default context plus each extra context; returns the merged UNG.
  topo::NavGraph Rip(const std::vector<RipContext>& extra_contexts = {});

  const RipStats& stats() const { return stats_; }

 private:
  // All currently visible (attached, on-screen) controls, by identifier.
  // The span stays valid only until the next capture or UI mutation.
  std::span<const VisibleEntry> CaptureVisible();

  // Whether exploration should click this control.
  bool IsExplorable(const gsim::Control& control) const;

  void RipContextInternal(topo::NavGraph& graph, const RipContext& context);

  // Adds nodes and edges for a set of newly revealed controls: the click
  // (from_node) points at subtree roots; containment wires the rest.
  void AddRevealedEdges(topo::NavGraph& graph, int from_node,
                        std::span<const VisibleEntry* const> fresh);

  // Copies the capture's ids into before_arena_ and indexes them in
  // before_ids_, reusing both buffers.
  void SnapshotIds(std::span<const VisibleEntry> capture);

  // Navigates to the state where `path` (control ids) has been clicked.
  // Returns false if replay failed (UI changed under us).
  bool ReplayPath(const std::vector<std::string>& path, const RipContext& context);

  // `ensure_fresh` forces an index rebuild on a stale generation — worth it
  // only when a capture of the same state follows immediately.
  gsim::Control* FindVisibleById(const std::string& control_id, bool ensure_fresh = false);

  topo::NodeInfo MakeNodeInfo(const VisibleEntry& entry) const;

  gsim::Application* app_;
  RipperConfig config_;
  RipStats stats_;
  std::unordered_set<std::string> explored_;
  VisibleIndex index_;
  // The pre-click capture's ids, end to end, and their table: the capture
  // itself is rewritten by the post-click capture.
  std::string before_arena_;
  IdTable before_ids_;
  // The entries a click revealed, pointing into the post-click capture.
  std::vector<const VisibleEntry*> fresh_;
};

}  // namespace ripper

#endif  // SRC_RIPPER_RIPPER_H_
