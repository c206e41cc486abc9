// PaperReport: the paper's whole evaluation (§5), computed once (DESIGN.md §3).
// BuildPaperReport() runs each distinct setting once on one TaskRunner: the
// eight Table 3 settings (3 repeats), the four --policy presets and the 5 × 3
// robustness grid (2 repeats each), 27 suites. Its models rip each app once,
// and §5.2 rips Word once more without the blocklist. Every other table and
// figure is a view of these. tools/dmi_paper prints the report,
// ReproductionFingerprint pins it, and it takes no option.
#ifndef SRC_AGENT_PAPER_REPORT_H_
#define SRC_AGENT_PAPER_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/agent/failure.h"
#include "src/agent/task_runner.h"
#include "src/dmi/compiled_model.h"
#include "src/ripper/ripper.h"
#include "src/workload/tasks.h"

namespace agentsim {

// One suite's aggregates; steps, time, tokens and UI actions average over
// successful runs only (Table 3's convention).
struct SuiteSummary {
  int runs = 0;
  int successes = 0;
  double success_rate = 0;
  double steps = 0;
  double time_s = 0;
  double prompt_tokens = 0;
  double total_tokens = 0;
  double prompt_per_call = 0;  // prompt tokens / steps
  double ui_actions = 0;
};

// Table 1 on PowerPoint: six GUI clicks against one three-id visit call (all
// slides blue), and noisy drag-observe iterations against one
// set_scrollbar_pos(80%) (show the area close to the end).
struct Table1Result {
  int gui_clicks = 0;  // clicks done before the chain ended (6 = all)
  bool gui_verified = false;
  bool dmi_verified = false;
  double drag_iterations = 0;
  double gui_scroll_percent = 0;  // where the drags end, on average
  double dmi_scroll_percent = 0;
  bool dmi_scroll_ok = false;

  bool ok() const { return gui_verified && dmi_verified && dmi_scroll_ok; }
};

// A forest built from a DAG at one externalization threshold.
struct ForestMeasure {
  size_t nodes = 0;
  size_t shared = 0;
  size_t references = 0;
  double ids_per_access = 0;  // target id + entry refs, over leaf targets
  bool unique_paths = false;  // topo::ValidateForest
};

// A graph against its naive clone tree and its forests: Fig 4 reads the
// default threshold's, the threshold sweep (apps only) every threshold's.
struct TopologyRow {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  size_t dag_nodes = 0;
  uint64_t naive_clone = 0;
  ForestMeasure forest;
  std::vector<std::pair<uint64_t, ForestMeasure>> sweep;
};

// §5.2 and §5.4's view of one runner model.
struct AppModel {
  workload::AppKind kind = workload::AppKind::kWord;
  dmi::ModelingStats stats;
  double tokens_per_control = 0;  // core tokens / core controls
  uint64_t graph_digest = 0;      // gsim::StateHash of ripped().ToJson().Dump()
};

// One Table 3 setting (§5.3): labels, ServiceConfig and LlmProfile names.
struct SettingRow {
  const char* label = "";
  const char* mode = "";
  const char* model = "";
  const char* knowledge = "";
  std::string profile_model;
  std::string profile_reasoning;
  SuiteResult suite;
  SuiteSummary summary;
};

// Fig 5b on the three GPT-5-medium rows.
struct StepAnalysis {
  size_t intersection = 0;  // tasks solved by all three methods
  double gui_steps = 0;     // normalized on the intersection
  double forest_steps = 0;
  double dmi_steps = 0;
  std::map<int, int> dmi_core_calls;  // core calls -> successful DMI trials
  double one_shot_share = 0;
  bool gui_solvable_stays_solvable = false;
};

// Fig 6: one suite's failure causes.
struct FailureBreakdown {
  std::map<FailureCause, int> causes;
  int failures = 0;
  int runs = 0;
  int policy = 0;
  int mechanism = 0;
};

// The robustness ablation: one executor variant at each hazard level.
struct RobustnessRow {
  const char* variant = "";
  std::vector<std::pair<const char*, SuiteSummary>> cells;  // instability -> suite
};

// The fault-domain ablation: a --policy preset and its robust.* counter deltas.
struct PresetRow {
  const char* policy = "";
  SuiteResult suite;
  SuiteSummary summary;
  uint64_t click_retries = 0;
  uint64_t interaction_retries = 0;
  uint64_t deadline_skips = 0;
  uint64_t faults = 0;  // stale refs + pattern failures + dropped events + freezes
};

struct PaperReport {
  Table1Result table1;
  std::vector<TopologyRow> fig4;  // two synthetic graphs, then the apps
  std::vector<AppModel> apps;  // Word, Excel, PowerPoint
  // §5.2's blocklist ablation; the "with" row is apps[0].stats.rip.
  ripper::RipStats word_without_blocklist;
  // Table 3's order (also Fig 5a): gui, forest, dmi at GPT-5 medium; gui,
  // dmi at GPT-5 minimal; gui, forest, dmi at GPT-5-mini medium.
  std::vector<SettingRow> table3;
  StepAnalysis fig5b;
  bool dmi_fewer_tokens = false;  // §5.4's claim at GPT-5 medium
  FailureBreakdown gui_failures;  // Fig 6, GPT-5 medium
  FailureBreakdown dmi_failures;
  std::vector<RobustnessRow> robustness;
  std::vector<PresetRow> presets;
};

PaperReport BuildPaperReport();

}  // namespace agentsim

#endif  // SRC_AGENT_PAPER_REPORT_H_
