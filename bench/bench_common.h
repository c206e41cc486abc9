// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure from the paper's evaluation (see DESIGN.md §3) and
// prints the paper's reported numbers next to ours for comparison.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/agent/service_adapter.h"
#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"

namespace bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Resolves a bench setting through the one config surface, as dmi_run does.
// Benches build their settings in code, so an invalid one is a bug.
inline agentsim::RunConfig Resolve(const dmi::ServiceConfig& service) {
  const support::Status valid = service.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "invalid bench setting: %s\n", valid.message().c_str());
    std::exit(2);
  }
  return agentsim::RunConfigFromService(service);
}

// The three evaluated settings of Table 3 (§5.3).
struct Setting {
  const char* label;
  const char* mode;   // ServiceConfig::mode (dmi_run --mode)
  const char* model;  // ServiceConfig::model (dmi_run --model)
  const char* knowledge;  // "/" or "Nav.forest"
};

inline std::vector<Setting> Table3Settings() {
  return {
      {"GUI-only", "gui", "gpt5", "/"},
      {"GUI-only", "forest", "gpt5", "Nav.forest"},
      {"GUI+DMI", "dmi", "gpt5", "Nav.forest"},
      {"GUI-only", "gui", "gpt5min", "/"},
      {"GUI+DMI", "dmi", "gpt5min", "Nav.forest"},
      {"GUI-only", "gui", "mini", "/"},
      {"GUI-only", "forest", "mini", "Nav.forest"},
      {"GUI+DMI", "dmi", "mini", "Nav.forest"},
  };
}

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
