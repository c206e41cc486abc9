// Scenario: the same task through both interfaces, side by side.
//
// Runs one OSWorld-W-like task (default P1, the paper's Table 1 Task 1) with
// the GUI-only baseline agent and the GUI+DMI agent under the same simulated
// LLM profile and instability level, printing the step/time/token contrast —
// a miniature of the Table 3 experiment you can point at any task:
//
//   ./build/examples/agent_showdown [task-id] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"

int main(int argc, char** argv) {
  const std::string task_id = argc > 1 ? argv[1] : "P1";
  const uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  agentsim::TaskRunner runner;
  const workload::Task* task = nullptr;
  auto tasks = workload::BuildOsworldWSuite();
  for (const auto& t : tasks) {
    if (t.id == task_id) {
      task = &t;
    }
  }
  if (task == nullptr) {
    std::printf("unknown task '%s'; available:", task_id.c_str());
    for (const auto& t : tasks) {
      std::printf(" %s", t.id.c_str());
    }
    std::printf("\n");
    return 2;
  }

  std::printf("task %s (%s): \"%s\"\n", task->id.c_str(),
              workload::AppKindName(task->app), task->description.c_str());
  std::printf("  ground truth: %zu imperative GUI actions vs %zu declarative DMI steps\n\n",
              task->gui_plan.size(), task->dmi_plan.size());

  for (const char* mode : {"gui", "dmi"}) {
    dmi::ServiceConfig service;
    service.mode = mode;
    service.model = "gpt5";
    const agentsim::RunConfig config = agentsim::RunConfigFromService(service);
    agentsim::RunResult r = runner.RunOnce(*task, config, seed);
    std::printf("%-10s  %s | llm calls %2d (core %d) | %5.0f s simulated | "
                "%6zu prompt tokens | %3zu UI actions",
                agentsim::InterfaceModeName(config.mode), r.success ? "SUCCESS" : "FAILED ",
                r.llm_calls, r.core_calls, r.sim_time_s, r.prompt_tokens, r.ui_actions);
    if (!r.success) {
      std::printf(" | cause: %s",
                  std::string(agentsim::FailureCauseName(r.cause)).c_str());
    }
    std::printf("\n");
  }
  std::printf("\n(The GUI agent clicks through visibility-limited action sequences with\n"
              "grounding noise; the DMI agent declares topology ids in one visit call\n"
              "and lets the executor navigate. Change the seed to watch the error\n"
              "modes move around.)\n");
  return 0;
}
