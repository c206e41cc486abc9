// Delta ripping (DESIGN.md §15): checksum-guided incremental re-modeling.
//
// Apps update continuously; re-ripping >4K controls from scratch per version
// does not scale. The delta path walks the *static* control tree of a live
// application, computes one structural checksum per top-level UI partition
// (window-root children, with tab strips expanded so each tab is its own
// partition, plus registered dialogs and shared subtrees as satellites),
// diffs the table against the one stored in a baseline model artifact, and
// re-rips only the partitions whose closure changed. Unchanged regions of the
// baseline UI Navigation Graph are spliced through verbatim; the result
// canonicalizes to the exact graph the offline model pipeline's rip of the
// updated app would produce (the mutation-injection tests assert byte
// identity, contexts included).
//
// The checksum of a partition covers its *closure*: the static subtree plus
// everything its exploration can reach — owned popups, shared popup subtrees,
// dialogs opened via dialog ids, and reveal targets. That closure rule is
// what makes splicing sound: any partition whose rip output could be affected
// by a change necessarily has a changed checksum and is re-ripped.
#ifndef SRC_RIPPER_DELTA_H_
#define SRC_RIPPER_DELTA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/gui/application.h"
#include "src/ripper/ripper.h"
#include "src/support/status.h"
#include "src/topology/nav_graph.h"

namespace ripper {

// One partition/satellite checksum. Keys are namespaced:
//   "window:<name>"        window-root identity (change => full-rip fallback)
//   "main:<child>"         partition rooted at a window-root child
//   "main:<strip>/<tab>"   per-tab partition of an expanded tab strip
//   "dialog:<root name>"   registered dialog window (satellite)
//   "shared:<root name>"   registered shared subtree (satellite)
struct SubtreeChecksum {
  std::string key;
  uint64_t checksum = 0;
};

// Sorted by key (strcmp order); unique keys.
using ChecksumTable = std::vector<SubtreeChecksum>;

// Computes the checksum table of a live application by walking static
// structure only (TrueName, types, automation ids, effects, wiring — never
// runtime ids or generations), so the digest is stable across instances and
// across pool resets.
ChecksumTable ComputeSubtreeChecksums(gsim::Application& app);

// Set difference of two tables, by key and digest.
struct ChecksumDiff {
  std::vector<std::string> changed;  // key in both, digest differs
  std::vector<std::string> added;    // key only in fresh
  std::vector<std::string> removed;  // key only in baseline
  bool Empty() const { return changed.empty() && added.empty() && removed.empty(); }
};
ChecksumDiff DiffChecksumTables(const ChecksumTable& baseline, const ChecksumTable& fresh);

struct DeltaRipOptions {
  RipperConfig config;
  std::vector<RipContext> extra_contexts;
  // Builds a fresh instance of the *updated* application (one for the
  // checksum walk, one per rip). Applications are procedurally generated, so
  // every instance exposes the same UI. Required.
  std::function<std::unique_ptr<gsim::Application>()> app_factory;
};

struct DeltaRipResult {
  // Canonicalized graph of the updated app — identical to the offline model
  // pipeline's GuiRipper::Rip(extra_contexts).Canonicalized() of the same
  // build.
  topo::NavGraph graph;
  // Rip counters actually spent (scoped rip, or the full rip on fallback).
  RipStats stats;
  // Fresh checksum table of the updated app (goes into the new artifact).
  ChecksumTable checksums;
  // Diff against the baseline table (empty on fallback with no baseline).
  ChecksumDiff diff;
  size_t partitions_total = 0;    // partitions + satellites in the fresh table
  size_t nodes_reused = 0;        // baseline nodes spliced through (excl. root)
  size_t nodes_reripped = 0;      // nodes contributed by the scoped rip (excl. root)
  // True when the delta path could not be used (no baseline checksums, the
  // window-root identity changed, or an unmappable node) and a full rip ran.
  bool full_fallback = false;
};

// Incrementally re-rips the updated application described by
// `options.app_factory` against `baseline` (the previous version's graph) and
// `baseline_checksums` (from the previous version's artifact). An empty
// baseline table triggers the full-rip fallback rather than an error, so a
// model saved with no checksum table degrades gracefully.
support::Result<DeltaRipResult> DeltaRip(const DeltaRipOptions& options,
                                         const topo::NavGraph& baseline,
                                         const ChecksumTable& baseline_checksums);

}  // namespace ripper

#endif  // SRC_RIPPER_DELTA_H_
