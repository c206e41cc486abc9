// The GUI-only baseline agent — a UFO-2-like AppAgent (paper §5.1 Baseline).
//
// Perceives the UI as labeled visible controls, emits *action sequences*
// constrained to currently visible controls (the "UFO2-as" configuration),
// and interacts imperatively: coordinate clicks (exposed to grounding noise),
// typed text, key chords, and iterative drag-observe loops for composite
// interactions. Optionally receives the DMI navigation forest as *static
// knowledge* in the prompt (the §5.5 ablation) — text only, no interface.
#ifndef SRC_AGENT_BASELINE_AGENT_H_
#define SRC_AGENT_BASELINE_AGENT_H_

#include <string>

#include "src/agent/run_result.h"
#include "src/agent/sim_llm.h"
#include "src/gui/application.h"
#include "src/gui/input.h"
#include "src/gui/instability.h"
#include "src/gui/screen.h"
#include "src/workload/tasks.h"

namespace agentsim {

struct BaselineConfig {
  // Total LLM-call cap per task (paper: 30 steps).
  int step_cap = 30;
  // Provide the serialized navigation forest as prompt knowledge (§5.5).
  bool forest_knowledge = false;
  // Token size of that knowledge blob (counted into every call's prompt).
  size_t forest_knowledge_tokens = 0;
};

class BaselineGuiAgent {
 public:
  BaselineGuiAgent(BaselineConfig config) : config_(config) {}

  // Runs one task on a fresh application. `injector` may be nullptr.
  RunResult Run(const workload::Task& task, gsim::Application& app, SimLlm& llm,
                gsim::InstabilityInjector* injector);

 private:
  BaselineConfig config_;
};

}  // namespace agentsim

#endif  // SRC_AGENT_BASELINE_AGENT_H_
