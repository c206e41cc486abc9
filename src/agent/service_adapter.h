// The one resolver from dmi::ServiceConfig to agentsim::RunConfig
// (DESIGN.md §16).
//
// ServiceConfig is the only configuration surface; RunConfig is the agent
// layer's resolved view of it. Every front end (dmi_run, dmi_serve, the paper
// report, the examples) fills in a ServiceConfig and calls
// RunConfigFromService once: mode/model names become enums, the --policy
// preset table sets the hazard level, retry schedules, run deadline and
// metrics label, the instability override replaces just the hazard level,
// and the §5.6 toggles land on the visit config.
#ifndef SRC_AGENT_SERVICE_ADAPTER_H_
#define SRC_AGENT_SERVICE_ADAPTER_H_

#include "src/agent/task_runner.h"
#include "src/dmi/service_config.h"

namespace agentsim {

// Precondition: config.Validate().ok(). Every name has been vetted, so the
// mapping is total and cannot fail.
RunConfig RunConfigFromService(const dmi::ServiceConfig& config);

}  // namespace agentsim

#endif  // SRC_AGENT_SERVICE_ADAPTER_H_
