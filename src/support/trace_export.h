// Exporters for the tracing/metrics subsystem (DESIGN.md §8), plus the
// shared JSON encoding of support::Status.
//
// Lives in its own library (dmi_telemetry) because it renders through
// src/json, which itself depends on dmi_support — the instruments in
// trace.h/metrics.h must stay json-free to avoid the cycle.
//
// Formats:
//   - Chrome trace: a {"traceEvents": [...]} document of complete ("ph":"X")
//     events, loadable in chrome://tracing or https://ui.perfetto.dev.
//   - JSONL: one JSON object per line per event, for streaming consumers.
//   - Metrics JSON: counters, histograms (bounds/buckets/count/sum/mean/
//     bucketed p50/p95) plus derived pipeline rates (capture cache hit rate,
//     visit locate fast-path rate) when their counters exist.
#ifndef SRC_SUPPORT_TRACE_EXPORT_H_
#define SRC_SUPPORT_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "src/json/json.h"
#include "src/support/flight_recorder.h"
#include "src/support/metrics.h"
#include "src/support/status.h"
#include "src/support/trace.h"

namespace support {

// ----- Chrome trace ----------------------------------------------------------

// Complete ("ph":"X") events plus flow ("ph":"s"/"f") events for the causal
// edges a nested timeline cannot show: a parent/child pair on different
// threads (a span submitted to the pool), and every span link (a batch flush
// fanning in its member calls). Events without causal context render exactly
// as they did before context existed — no extra args, no flows.
jsonv::Value ChromeTraceJson(const std::vector<TraceEvent>& events);
Status WriteChromeTrace(const std::string& path, const std::vector<TraceEvent>& events);

// ----- JSONL event stream ----------------------------------------------------

// One compact JSON object per event, newline-terminated.
std::string TraceJsonl(const std::vector<TraceEvent>& events);
Status WriteTraceJsonl(const std::string& path, const std::vector<TraceEvent>& events);

// ----- metrics ---------------------------------------------------------------

// Renders counters/histograms/derived rates as before; labeled series are
// added under a separate "labeled_counters" object (keyed by the encoded
// `name{k=v,...}` form) only when any exist, so the unlabeled document stays
// byte-identical.
jsonv::Value MetricsJson(const MetricsSnapshot& snapshot);
Status WriteMetricsJson(const std::string& path, const MetricsSnapshot& snapshot);

// ----- status ----------------------------------------------------------------

// {code, message, error_detail?}: the one JSON encoding of a Status and its
// ErrorDetail, shared by visit reports, run reports and serving responses.
jsonv::Value StatusJson(const Status& status);

// ----- flight recorder -------------------------------------------------------

// The per-run postmortem document embedded in --report-json (DESIGN.md §13):
// {run_id, capacity, total_recorded, dropped, events:[...]} where each event
// renders its non-zero fields only and error_detail matches StatusJson's.
// Deterministic for a given recorder state.
jsonv::Value FlightRecorderJson(const FlightRecorder& recorder);

}  // namespace support

#endif  // SRC_SUPPORT_TRACE_EXPORT_H_
