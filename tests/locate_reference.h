// The reference control locate: VisitExecutor::LocateControl's search with no
// memo and no pruning — the exact-id probe on the top window, then a fuzzy
// fallback that scores every same-type candidate of the top window in full.
// The tests assert the executor's answer against it after every step of a
// seeded walk of UI mutations.
#ifndef TESTS_LOCATE_REFERENCE_H_
#define TESTS_LOCATE_REFERENCE_H_

#include <string>

#include "src/gui/application.h"
#include "src/gui/capture.h"
#include "src/ripper/identifier.h"
#include "src/text/similarity.h"
#include "src/topology/nav_graph.h"

namespace locate_reference {

// The executor's minimum fuzzy-match score.
inline constexpr double kFuzzyThreshold = 0.72;

// The control in the top window that stands for `info`, or nullptr. `index`
// is the capture of `app`.
inline gsim::Control* LocateControl(gsim::Application& app, gsim::Capture& index,
                                    const topo::NodeInfo& info) {
  gsim::Window* top = app.TopWindow();
  if (top == nullptr) {
    return nullptr;
  }
  if (gsim::Control* exact = index.FindByIdInWindow(info.control_id, top); exact != nullptr) {
    return exact;
  }
  const std::string query_path = ripper::ParseControlId(info.control_id).ancestor_path;
  gsim::Control* best_fuzzy = nullptr;
  double best_score = 0.0;
  for (const gsim::CaptureEntry& entry : index.TopWindowEntries()) {
    if (entry.control_id == info.control_id) {
      return entry.control;
    }
    if (entry.control->Type() != info.type) {
      continue;
    }
    const double score =
        0.8 * textutil::DecorationAwareScore(info.name, entry.control->Name()) +
        0.2 * textutil::TokenSetRatio(entry.ancestor_path(), query_path);
    if (score > best_score) {
      best_score = score;
      best_fuzzy = entry.control;
    }
  }
  if (best_fuzzy != nullptr && best_score >= kFuzzyThreshold) {
    return best_fuzzy;
  }
  return nullptr;
}

}  // namespace locate_reference

#endif  // TESTS_LOCATE_REFERENCE_H_
