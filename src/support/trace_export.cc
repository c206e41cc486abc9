#include "src/support/trace_export.h"

#include <unordered_map>

#include "src/support/binio.h"

namespace support {
namespace {

jsonv::Value EventJson(const TraceEvent& event) {
  jsonv::Object o;
  o["name"] = jsonv::Value(event.name);
  o["cat"] = jsonv::Value(event.category);
  o["ph"] = jsonv::Value("X");  // complete event: ts + dur in one record
  o["ts"] = jsonv::Value(static_cast<int64_t>(event.start_us));
  o["dur"] = jsonv::Value(static_cast<int64_t>(event.dur_us));
  o["pid"] = jsonv::Value(static_cast<int64_t>(1));
  o["tid"] = jsonv::Value(static_cast<int64_t>(event.tid));
  jsonv::Object args;
  args["depth"] = jsonv::Value(static_cast<int64_t>(event.depth));
  // Causal coordinates render only when present, so events emitted without
  // context (and all pre-context golden fixtures) stay byte-identical.
  if (event.span_id != 0) {
    args["span"] = jsonv::Value(static_cast<int64_t>(event.span_id));
  }
  if (event.parent_span_id != 0) {
    args["parent"] = jsonv::Value(static_cast<int64_t>(event.parent_span_id));
  }
  if (event.run_id != 0) {
    args["run"] = jsonv::Value(static_cast<int64_t>(event.run_id));
  }
  if (!event.links.empty()) {
    jsonv::Array links;
    links.reserve(event.links.size());
    for (uint64_t link : event.links) {
      links.push_back(jsonv::Value(static_cast<int64_t>(link)));
    }
    args["links"] = jsonv::Value(std::move(links));
  }
  for (const auto& [key, value] : event.args) {
    args[key] = jsonv::Value(value);
  }
  o["args"] = jsonv::Value(std::move(args));
  return jsonv::Value(std::move(o));
}

// One Chrome flow edge: a "s" (start) event at the producer and a matching
// "f" (finish, bp:"e") event at the consumer, sharing name/cat/id.
void AppendFlowEdge(jsonv::Array& out, int64_t flow_id, const char* name,
                    uint32_t from_tid, uint64_t from_ts, uint32_t to_tid, uint64_t to_ts) {
  jsonv::Object s;
  s["name"] = jsonv::Value(name);
  s["cat"] = jsonv::Value("flow");
  s["ph"] = jsonv::Value("s");
  s["id"] = jsonv::Value(flow_id);
  s["ts"] = jsonv::Value(static_cast<int64_t>(from_ts));
  s["pid"] = jsonv::Value(static_cast<int64_t>(1));
  s["tid"] = jsonv::Value(static_cast<int64_t>(from_tid));
  out.push_back(jsonv::Value(std::move(s)));
  jsonv::Object f;
  f["name"] = jsonv::Value(name);
  f["cat"] = jsonv::Value("flow");
  f["ph"] = jsonv::Value("f");
  f["bp"] = jsonv::Value("e");
  f["id"] = jsonv::Value(flow_id);
  f["ts"] = jsonv::Value(static_cast<int64_t>(to_ts));
  f["pid"] = jsonv::Value(static_cast<int64_t>(1));
  f["tid"] = jsonv::Value(static_cast<int64_t>(to_tid));
  out.push_back(jsonv::Value(std::move(f)));
}

jsonv::Value ErrorDetailJson(const ErrorDetail& detail) {
  jsonv::Object obj;
  obj["control_id"] = detail.control_id;
  obj["control_name"] = detail.control_name;
  obj["required_pattern"] = detail.required_pattern;
  obj["retryable"] = detail.retryable;
  obj["attempts"] = detail.attempts;
  obj["backoff_ticks"] = static_cast<int64_t>(detail.backoff_ticks);
  return jsonv::Value(std::move(obj));
}

// Adds derived["name"] = num / (num + denom_rest) when the inputs exist.
void AddRate(jsonv::Object& derived, const MetricsSnapshot& snapshot, const char* name,
             const char* numerator, const char* other) {
  const uint64_t num = snapshot.CounterValue(numerator);
  const uint64_t rest = snapshot.CounterValue(other);
  if (num + rest == 0) {
    return;
  }
  derived[name] = jsonv::Value(static_cast<double>(num) / static_cast<double>(num + rest));
}

}  // namespace

jsonv::Value ChromeTraceJson(const std::vector<TraceEvent>& events) {
  jsonv::Array trace_events;
  trace_events.reserve(events.size());
  std::unordered_map<uint64_t, size_t> by_span;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) {
      by_span.emplace(events[i].span_id, i);
    }
  }
  for (const TraceEvent& event : events) {
    trace_events.push_back(EventJson(event));
  }
  // Flow edges. Ids count up in event order, which is deterministic for a
  // given (causally sorted) event list.
  int64_t next_flow_id = 1;
  for (const TraceEvent& event : events) {
    if (event.parent_span_id != 0) {
      const auto it = by_span.find(event.parent_span_id);
      // Only cross-thread parenthood needs a flow; same-thread nesting is
      // already visible in the timeline.
      if (it != by_span.end() && events[it->second].tid != event.tid) {
        const TraceEvent& parent = events[it->second];
        AppendFlowEdge(trace_events, next_flow_id++, "submit", parent.tid, parent.start_us,
                       event.tid, event.start_us);
      }
    }
    for (uint64_t link : event.links) {
      const auto it = by_span.find(link);
      if (it == by_span.end()) {
        continue;
      }
      const TraceEvent& member = events[it->second];
      AppendFlowEdge(trace_events, next_flow_id++, "link", member.tid, member.start_us,
                     event.tid, event.start_us);
    }
  }
  jsonv::Object doc;
  doc["traceEvents"] = jsonv::Value(std::move(trace_events));
  doc["displayTimeUnit"] = jsonv::Value("ms");
  return jsonv::Value(std::move(doc));
}

Status WriteChromeTrace(const std::string& path, const std::vector<TraceEvent>& events) {
  return WriteFileBytes(path, ChromeTraceJson(events).DumpPretty() + "\n");
}

std::string TraceJsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& event : events) {
    out += EventJson(event).Dump();
    out += '\n';
  }
  return out;
}

Status WriteTraceJsonl(const std::string& path, const std::vector<TraceEvent>& events) {
  return WriteFileBytes(path, TraceJsonl(events));
}

jsonv::Value MetricsJson(const MetricsSnapshot& snapshot) {
  jsonv::Object counters;
  for (const CounterSnapshot& c : snapshot.counters) {
    counters[c.name] = jsonv::Value(static_cast<int64_t>(c.value));
  }

  jsonv::Object histograms;
  for (const HistogramSnapshot& h : snapshot.histograms) {
    jsonv::Object o;
    jsonv::Array bounds;
    for (double b : h.bounds) {
      bounds.push_back(jsonv::Value(b));
    }
    jsonv::Array buckets;
    for (uint64_t b : h.buckets) {
      buckets.push_back(jsonv::Value(static_cast<int64_t>(b)));
    }
    o["bounds"] = jsonv::Value(std::move(bounds));
    o["buckets"] = jsonv::Value(std::move(buckets));
    o["count"] = jsonv::Value(static_cast<int64_t>(h.count));
    o["sum"] = jsonv::Value(h.sum);
    o["mean"] = jsonv::Value(h.Mean());
    o["p50_le"] = jsonv::Value(h.QuantileUpperBound(0.5));
    o["p95_le"] = jsonv::Value(h.QuantileUpperBound(0.95));
    histograms[h.name] = jsonv::Value(std::move(o));
  }

  // Pipeline health ratios, reported as-is by `dmi_run --metrics`.
  jsonv::Object derived;
  AddRate(derived, snapshot, "capture_cache_hit_rate", "visible_index.capture_hits",
          "visible_index.rebuilds");
  AddRate(derived, snapshot, "rip_capture_hit_rate", "rip.capture_cache_hits",
          "rip.capture_rebuilds");
  AddRate(derived, snapshot, "visit_locate_fast_path_rate", "visit.locate_fast_path",
          "visit.locate_fallback_walks");
  AddRate(derived, snapshot, "agent_success_rate", "agent.successes", "agent.failures");

  jsonv::Object doc;
  doc["counters"] = jsonv::Value(std::move(counters));
  doc["histograms"] = jsonv::Value(std::move(histograms));
  doc["derived"] = jsonv::Value(std::move(derived));
  if (!snapshot.labeled_counters.empty()) {
    // Keyed by the encoded series name; jsonv objects are sorted maps, so
    // the document order is the deterministic (name, labels) order.
    jsonv::Object labeled;
    for (const CounterSnapshot& c : snapshot.labeled_counters) {
      labeled[MetricsRegistry::EncodeLabeledName(c.name, c.labels)] =
          jsonv::Value(static_cast<int64_t>(c.value));
    }
    doc["labeled_counters"] = jsonv::Value(std::move(labeled));
  }
  return jsonv::Value(std::move(doc));
}

Status WriteMetricsJson(const std::string& path, const MetricsSnapshot& snapshot) {
  return WriteFileBytes(path, MetricsJson(snapshot).DumpPretty() + "\n");
}

jsonv::Value StatusJson(const Status& status) {
  jsonv::Object obj;
  obj["code"] = StatusCodeName(status.code());
  obj["message"] = status.message();
  if (status.has_detail()) {
    obj["error_detail"] = ErrorDetailJson(status.detail());
  }
  return jsonv::Value(std::move(obj));
}

jsonv::Value FlightRecorderJson(const FlightRecorder& recorder) {
  jsonv::Object doc;
  doc["run_id"] = jsonv::Value(static_cast<int64_t>(recorder.run_id()));
  doc["capacity"] = jsonv::Value(static_cast<int64_t>(recorder.capacity()));
  doc["total_recorded"] = jsonv::Value(static_cast<int64_t>(recorder.TotalRecorded()));
  doc["dropped"] = jsonv::Value(static_cast<int64_t>(recorder.DroppedCount()));
  jsonv::Array events;
  for (const FlightEvent& event : recorder.Events()) {
    jsonv::Object o;
    o["seq"] = jsonv::Value(static_cast<int64_t>(event.seq));
    o["t_us"] = jsonv::Value(static_cast<int64_t>(event.t_us));
    o["kind"] = jsonv::Value(event.kind);
    if (!event.what.empty()) {
      o["what"] = jsonv::Value(event.what);
    }
    if (!event.status.empty()) {
      o["status"] = jsonv::Value(event.status);
    }
    if (event.detail != nullptr) {
      o["error_detail"] = ErrorDetailJson(*event.detail);
    }
    if (event.attempts != 0) {
      o["attempts"] = jsonv::Value(static_cast<int64_t>(event.attempts));
    }
    if (event.backoff_ticks != 0) {
      o["backoff_ticks"] = jsonv::Value(static_cast<int64_t>(event.backoff_ticks));
    }
    if (event.tokens != 0) {
      o["tokens"] = jsonv::Value(event.tokens);
    }
    if (event.aux_tokens != 0) {
      o["aux_tokens"] = jsonv::Value(event.aux_tokens);
    }
    if (event.batch_id != 0) {
      o["batch_id"] = jsonv::Value(static_cast<int64_t>(event.batch_id));
    }
    events.push_back(jsonv::Value(std::move(o)));
  }
  doc["events"] = jsonv::Value(std::move(events));
  return jsonv::Value(std::move(doc));
}

}  // namespace support
