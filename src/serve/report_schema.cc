#include "src/serve/report_schema.h"

#include "src/support/trace_export.h"

namespace serve {

jsonv::Value RequestJson(const Request& request) {
  jsonv::Object obj;
  obj["schema_version"] = kSchemaVersion;
  obj["request_id"] = static_cast<int64_t>(request.request_id);
  obj["tenant"] = request.tenant;
  obj["task"] = request.task_id;
  obj["seed"] = static_cast<int64_t>(request.seed);
  return jsonv::Value(std::move(obj));
}

support::Result<Request> ParseRequest(const std::string& text) {
  support::Result<jsonv::Value> parsed = jsonv::Parse(text);
  if (!parsed.ok()) {
    return support::InvalidArgumentError("request: " + parsed.status().message());
  }
  if (!parsed->is_object()) {
    return support::InvalidArgumentError("request: not a JSON object");
  }
  const int64_t version = parsed->GetInt("schema_version", -1);
  if (version != kSchemaVersion) {
    return support::InvalidArgumentError(
        "request: schema_version " + std::to_string(version) + " unsupported (want " +
        std::to_string(kSchemaVersion) + ")");
  }
  Request request;
  request.request_id = static_cast<uint64_t>(parsed->GetInt("request_id", 0));
  request.tenant = parsed->GetString("tenant", "");
  request.task_id = parsed->GetString("task", "");
  request.seed = static_cast<uint64_t>(parsed->GetInt("seed", 1));
  if (request.task_id.empty()) {
    return support::InvalidArgumentError("request: missing 'task'");
  }
  return request;
}

jsonv::Value RunJson(const agentsim::RunResult& run) {
  jsonv::Object r;
  r["success"] = run.success;
  r["llm_calls"] = run.llm_calls;
  r["core_calls"] = run.core_calls;
  r["sim_time_s"] = run.sim_time_s;
  r["prompt_tokens"] = static_cast<int64_t>(run.prompt_tokens);
  r["output_tokens"] = static_cast<int64_t>(run.output_tokens);
  r["ui_actions"] = static_cast<int64_t>(run.ui_actions);
  r["run_id"] = static_cast<int64_t>(run.run_id);
  r["cause"] = std::string(agentsim::FailureCauseName(run.cause));
  r["final_status"] = support::StatusJson(run.final_status);
  if (!run.success && run.flight != nullptr) {
    // Failed run: render the flight recorder — the failing command with its
    // ErrorDetail, retry/backoff spending, prompt tokens, and batch
    // membership (DESIGN.md §13).
    r["flight_recorder"] = support::FlightRecorderJson(*run.flight);
  }
  if (!run.report_json.empty()) {
    // The per-run visit report is itself RenderJson() output; embed it as a
    // JSON value (round-trips by construction).
    support::Result<jsonv::Value> parsed = jsonv::Parse(run.report_json);
    r["visit_report"] = parsed.ok() ? std::move(*parsed) : jsonv::Value(nullptr);
  }
  return jsonv::Value(std::move(r));
}

jsonv::Value ResponseJson(const Response& response) {
  jsonv::Object root;
  root["schema_version"] = kSchemaVersion;
  root["request_id"] = static_cast<int64_t>(response.request_id);
  root["tenant"] = response.tenant;
  root["task"] = response.task_id;
  root["status"] = support::StatusJson(response.status);
  root["queue_ms"] = response.queue_ms;
  root["total_ms"] = response.total_ms;
  if (response.status.ok()) {
    root["run"] = RunJson(response.result);
  }
  return jsonv::Value(std::move(root));
}

jsonv::Value SuiteReportJson(const agentsim::RunConfig& config,
                             const agentsim::SuiteResult& result,
                             const agentsim::BatchScheduler::Stats* batch_stats) {
  jsonv::Object root;
  root["schema_version"] = kSchemaVersion;
  root["mode"] = agentsim::InterfaceModeName(config.mode);
  root["model"] = config.profile.model;
  root["seed"] = static_cast<int64_t>(config.seed);
  root["repeats"] = config.repeats;
  if (!config.policy_label.empty()) {
    root["policy"] = config.policy_label;
  }
  root["success_rate"] = result.SuccessRate();
  jsonv::Array task_entries;
  for (const auto& record : result.records) {
    jsonv::Object task;
    task["task"] = record.task_id;
    jsonv::Array runs;
    for (const auto& run : record.runs) {
      runs.push_back(RunJson(run));
    }
    task["runs"] = jsonv::Value(std::move(runs));
    task_entries.push_back(jsonv::Value(std::move(task)));
  }
  root["tasks"] = jsonv::Value(std::move(task_entries));
  if (batch_stats != nullptr) {
    jsonv::Object fleet;
    fleet["workers"] = config.workers;
    fleet["max_batch_size"] = static_cast<int64_t>(config.batch.max_batch_size);
    fleet["calls"] = static_cast<int64_t>(batch_stats->calls);
    fleet["batches"] = static_cast<int64_t>(batch_stats->batches);
    fleet["amortized_call_latency_s"] = batch_stats->AmortizedCallLatencyS();
    fleet["amortized_speedup"] = batch_stats->AmortizedSpeedup();
    fleet["tokens_per_sec"] = batch_stats->TokensPerSec();
    fleet["prefix_tokens_saved"] = static_cast<int64_t>(batch_stats->prefix_tokens_saved);
    root["fleet_batching"] = jsonv::Value(std::move(fleet));
  }
  return jsonv::Value(std::move(root));
}

}  // namespace serve
