#include <optional>

#include "bench.h"
#include "src/dmi/session.h"
#include "src/gui/screen.h"
#include "src/serve/report_schema.h"
#include "src/serve/wire.h"

namespace perfbench {
namespace {

double UsSince(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1000.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

ProbeTimes RunProbes(agentsim::TaskRunner& runner, const agentsim::RunConfig& config,
                     const std::vector<Session>& sessions,
                     const std::vector<agentsim::RunResult>& results) {
  // The probe attaches to the very models the runs used: the runner's
  // registry memoizes them by (kind, version).
  dmi::ModelRegistry* registry = runner.mutable_model_registry();
  std::map<workload::AppKind, std::shared_ptr<const dmi::CompiledModel>> models;
  const auto model_for = [&](workload::AppKind kind) {
    auto& slot = models[kind];
    if (slot == nullptr && registry != nullptr) {
      auto acquired = registry->Acquire(
          workload::AppKindName(kind), "1", agentsim::TaskRunner::DefaultModelingOptions(kind),
          [] { return support::Result<std::shared_ptr<const dmi::CompiledModel>>(
                   support::FailedPreconditionError("probe: model not resolved")); });
      if (acquired.ok()) {
        slot = *acquired;
      }
    }
    return slot;
  };

  ProbeTimes sum;
  for (size_t i = 0; i < sessions.size(); ++i) {
    const workload::Task& task = *sessions[i].task;
    const std::shared_ptr<const dmi::CompiledModel> model = model_for(task.app);

    int64_t t0 = NowNs();
    workload::AppPool::Lease lease = runner.app_pool().Acquire(task, config.pool_apps);
    sum.lease_us += UsSince(t0, NowNs());
    gsim::Application& app = *lease;

    if (model != nullptr) {
      dmi::SessionOptions options;
      options.visit = config.visit;
      options.interaction = model->options().interaction;
      options.interaction.retry = config.interaction_retry;
      std::optional<dmi::DmiSession> session;
      t0 = NowNs();
      session.emplace(app, model, options);
      const int64_t t1 = NowNs();
      (void)session->Prompt();
      const int64_t t2 = NowNs();
      sum.attach_us += UsSince(t0, t1);
      sum.prompt_us += UsSince(t1, t2);
    }

    t0 = NowNs();
    {
      gsim::ScreenView screen(app);
      screen.Refresh();
      (void)screen.RenderListing();
    }
    sum.listing_us += UsSince(t0, NowNs());

    t0 = NowNs();
    (void)task.verify(app);
    sum.verify_us += UsSince(t0, NowNs());

    t0 = NowNs();
    lease.Release();
    sum.reset_us += UsSince(t0, NowNs());

    serve::Response response;
    response.request_id = i + 1;
    response.tenant = "tenant0";
    response.task_id = task.id;
    response.status = support::Status::Ok();
    response.result = results[i];
    response.run_id = response.result.run_id;
    std::string frame;
    t0 = NowNs();
    serve::AppendFrame(frame, serve::ResponseJson(response).Dump());
    sum.encode_us += UsSince(t0, NowNs());

    serve::Request request;
    request.request_id = i + 1;
    request.tenant = "tenant0";
    request.task_id = task.id;
    request.seed = sessions[i].seed;
    std::string request_frame;
    serve::AppendFrame(request_frame, serve::RequestJson(request).Dump());
    t0 = NowNs();
    size_t offset = 0;
    auto decoded = serve::DecodeFrame(request_frame, &offset);
    if (decoded.ok() && decoded->has_value()) {
      (void)serve::ParseRequest(**decoded);
    }
    sum.parse_us += UsSince(t0, NowNs());
  }

  const double n = sessions.empty() ? 1.0 : static_cast<double>(sessions.size());
  ProbeTimes mean;
  mean.lease_us = sum.lease_us / n;
  mean.attach_us = sum.attach_us / n;
  mean.prompt_us = sum.prompt_us / n;
  mean.listing_us = sum.listing_us / n;
  mean.verify_us = sum.verify_us / n;
  mean.reset_us = sum.reset_us / n;
  mean.encode_us = sum.encode_us / n;
  mean.parse_us = sum.parse_us / n;
  std::printf("probes: %zu sessions\n", sessions.size());
  return mean;
}

void AddLayerMetrics(const LayerInputs& in, Metrics* metrics) {
  Metrics& m = *metrics;
  const SpanTotals& s = in.spans;
  const double per_span = Ratio(1.0, in.span_sessions);
  const double per_counted = Ratio(1.0, in.counter_sessions);
  const auto delta = [&](const char* name) { return in.counters.Delta(name); };

  m["agent.run_us"] = {s.Total("agent.run") * per_span, "us"};
  m["agent.run_self_us"] = {s.Self("agent.run") * per_span, "us"};
  m["agent.dmi_self_us"] = {s.Self("agent.dmi") * per_span, "us"};
  m["agent.baseline_us"] = {s.Total("agent.baseline") * per_span, "us"};
  m["agent.batch_flush_us"] = {s.Total("batch.flush") * per_span, "us"};

  m["dmi.visit_execute_self_us"] = {s.Self("visit.execute") * per_span, "us"};
  m["dmi.visit_navigate_us"] = {s.Total("visit.navigate") * per_span, "us"};
  // Spans cover only the traced sessions; the command counter covers every
  // session in the window, so scale it to the traced share.
  const double traced_commands =
      delta("visit.commands") * Ratio(in.span_sessions, in.counter_sessions);
  m["dmi.navigate_us_per_command"] = {Ratio(s.Total("visit.navigate"), traced_commands), "us"};
  m["dmi.locate_fast_path"] = {delta("visit.locate_fast_path") * per_counted, "per_session"};
  m["dmi.locate_fallback_walks"] = {delta("visit.locate_fallback_walks") * per_counted,
                                    "per_session"};
  m["dmi.locate_retries"] = {delta("visit.locate_retries") * per_counted, "per_session"};
  m["dmi.click_retries"] = {delta("robust.click_retries") * per_counted, "per_session"};
  m["dmi.attach_us"] = {in.probes.attach_us, "us"};
  m["dmi.prompt_us"] = {in.probes.prompt_us, "us"};
  m["dmi.model_build_ms"] = {Ratio(in.setup_spans.Total("model.build"), in.builds) / 1000.0,
                             "ms"};
  m["dmi.model_load_ms"] = {
      Ratio(in.setup_spans.Total("model.artifact_load"), in.loads) / 1000.0, "ms"};

  m["ripper.rip_ms"] = {Ratio(in.setup_spans.Total("rip.rip"), in.builds) / 1000.0, "ms"};
  m["ripper.index_rebuilds"] = {delta("visible_index.rebuilds") * per_counted, "per_session"};
  m["ripper.index_lookups"] = {delta("visible_index.lookups") * per_counted, "per_session"};
  m["ripper.index_cold_walks"] = {delta("visible_index.cold_walks") * per_counted,
                                  "per_session"};
  m["ripper.index_hit_rate"] = {
      Ratio(delta("visible_index.capture_hits"),
            delta("visible_index.capture_hits") + delta("visible_index.rebuilds")),
      "share"};

  m["describe.resolve_calls"] = {delta("describe.resolve_calls") * per_counted, "per_session"};
  m["describe.prompt_cache_hit_rate"] = {
      Ratio(delta("describe.prompt_cache_hits"),
            delta("describe.prompt_cache_hits") + delta("describe.prompt_cache_misses")),
      "share"};

  m["workload.lease_us"] = {in.probes.lease_us, "us"};
  m["workload.reset_us"] = {in.probes.reset_us, "us"};
  m["workload.verify_us"] = {in.probes.verify_us, "us"};
  m["workload.app_creates"] = {delta("app_pool.creates"), "count"};

  m["gui.listing_us"] = {in.probes.listing_us, "us"};
  m["gui.ui_actions"] = {delta("agent.ui_actions") * per_counted, "per_session"};

  m["serve.encode_us"] = {in.probes.encode_us, "us"};
  m["serve.parse_us"] = {in.probes.parse_us, "us"};
}

}  // namespace perfbench
