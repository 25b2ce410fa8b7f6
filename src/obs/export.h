// Exporters for the observability layer.
//
//   * Chrome trace_event JSON — load the file in chrome://tracing or
//     https://ui.perfetto.dev to see the span timeline per thread.
//   * Prometheus text exposition — counters get a `_total` suffix,
//     histograms expand to `_bucket{le=...}` / `_sum` / `_count`, names
//     are prefixed `mecsched_` and sanitized to the Prometheus charset.
//   * A fixed-width console summary table (common/table) for --obs-summary
//     and the bench harness.
#pragma once

#include <string>

#include "common/table.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::obs {

// Renders the tracer's buffered events as a Chrome trace JSON document
// ({"traceEvents":[...], ...}).
std::string to_chrome_json(const Tracer& tracer);
void write_chrome_trace(const Tracer& tracer, const std::string& path);

// Renders the registry in the Prometheus text exposition format.
std::string to_prometheus(const Registry& registry);
void write_prometheus(const Registry& registry, const std::string& path);

// One row per metric: kind, count, total, mean, min, max, p50, p90, p99.
// Histogram percentiles come from Histogram::approx_percentile.
Table summary_table(const Registry& registry);

// Renders the flight recorder's buffered SolveRecords as JSON Lines (one
// record object per line, seq-ordered) — the post-mortem artifact behind
// the CLI's --flight-out flag and `mecsched report`.
std::string to_flight_jsonl(const FlightRecorder& recorder);
void write_flight_jsonl(const FlightRecorder& recorder,
                        const std::string& path);

}  // namespace mecsched::obs
