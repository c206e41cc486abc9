// The GUI+DMI agent (paper §5.1 "Our approach").
//
// Runs on top of the same UFO-2-like framework, but the AppAgent plans
// globally over the navigation topology: one visit() call can drive controls
// that are not yet visible, so most tasks complete in a single core LLM call.
// State/observation declarations are separate turns (DMI disallows mixing
// visit with interaction interfaces, §3.4). The agent's imperfect instruction
// following — emitting navigation nodes — is absorbed by DMI's filtering.
#ifndef SRC_AGENT_DMI_AGENT_H_
#define SRC_AGENT_DMI_AGENT_H_

#include "src/agent/run_result.h"
#include "src/agent/sim_llm.h"
#include "src/dmi/session.h"
#include "src/workload/tasks.h"

namespace agentsim {

struct DmiAgentConfig {
  int step_cap = 30;
  // Capture RenderJson() of each visit report into RunResult::report_json
  // (the last one wins). Off by default: only dmi_run --report-json pays it.
  bool capture_report_json = false;
};

class DmiAgent {
 public:
  explicit DmiAgent(DmiAgentConfig config) : config_(config) {}

  // Runs one task through an already-modeled session bound to a fresh app.
  RunResult Run(const workload::Task& task, dmi::DmiSession& session, SimLlm& llm);

 private:
  DmiAgentConfig config_;
};

}  // namespace agentsim

#endif  // SRC_AGENT_DMI_AGENT_H_
