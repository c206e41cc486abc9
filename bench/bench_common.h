// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure from the paper's evaluation (see DESIGN.md §3) and
// prints the paper's reported numbers next to ours for comparison.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/agent/task_runner.h"

namespace bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// The three evaluated settings of Table 3 (§5.3).
struct Setting {
  const char* label;
  agentsim::InterfaceMode mode;
  agentsim::LlmProfile profile;
  const char* knowledge;  // "/" or "Nav.forest"
};

inline std::vector<Setting> Table3Settings() {
  using agentsim::InterfaceMode;
  using agentsim::LlmProfile;
  return {
      {"GUI-only", InterfaceMode::kGuiOnly, LlmProfile::Gpt5Medium(), "/"},
      {"GUI-only", InterfaceMode::kGuiOnlyForest, LlmProfile::Gpt5Medium(), "Nav.forest"},
      {"GUI+DMI", InterfaceMode::kGuiPlusDmi, LlmProfile::Gpt5Medium(), "Nav.forest"},
      {"GUI-only", InterfaceMode::kGuiOnly, LlmProfile::Gpt5Minimal(), "/"},
      {"GUI+DMI", InterfaceMode::kGuiPlusDmi, LlmProfile::Gpt5Minimal(), "Nav.forest"},
      {"GUI-only", InterfaceMode::kGuiOnly, LlmProfile::Gpt5MiniMedium(), "/"},
      {"GUI-only", InterfaceMode::kGuiOnlyForest, LlmProfile::Gpt5MiniMedium(),
       "Nav.forest"},
      {"GUI+DMI", InterfaceMode::kGuiPlusDmi, LlmProfile::Gpt5MiniMedium(), "Nav.forest"},
  };
}

}  // namespace bench

#endif  // BENCH_BENCH_COMMON_H_
