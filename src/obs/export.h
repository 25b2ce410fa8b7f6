// Exporters for the observability layer.
//
//   * Chrome trace_event JSON — load the file in chrome://tracing or
//     https://ui.perfetto.dev to see the span timeline per thread.
//   * Prometheus text exposition — counters get a `_total` suffix,
//     histograms expand to `_bucket{le=...}` / `_sum` / `_count`, names
//     are prefixed `mecsched_` and sanitized to the Prometheus charset.
//   * A fixed-width console summary table (common/table) for --obs-summary
//     and the bench harness.
//
// start_recording() and flush_outputs() bracket one run for both the CLI's
// global flags and the bench binaries' MECSCHED_* variables.
#pragma once

#include <iosfwd>
#include <string>

#include "common/table.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::obs {

// Renders the tracer's buffered events as a Chrome trace JSON document
// ({"traceEvents":[...], ...}).
std::string to_chrome_json(const Tracer& tracer);

// Renders the registry in the Prometheus text exposition format.
std::string to_prometheus(const Registry& registry);

// One row per metric: kind, count, total, mean, min, max, p50, p90, p99.
// Histogram percentiles come from Histogram::approx_percentile.
Table summary_table(const Registry& registry);

// Renders the flight recorder's buffered SolveRecords as JSON Lines (one
// record object per line, seq-ordered) — the post-mortem artifact behind
// the CLI's --flight-out flag and `mecsched report`.
std::string to_flight_jsonl(const FlightRecorder& recorder);

// Where one run's artifacts go; an empty path writes nothing.
struct OutputFiles {
  std::string trace;    // Chrome trace of the global tracer
  std::string metrics;  // Prometheus text of the global registry
  std::string flight;   // JSONL of the global flight recorder
  bool summary = false; // print summary_table() of the global registry
};

// Enables the tracer when a trace is asked for, and the flight recorder
// (emptied) when a flight record is.
void start_recording(const OutputFiles& files);

// Writes the trace, the flight record, the metrics and the summary table,
// in that order. Each file written is named on `out` ("wrote trace <path>",
// "wrote flight record <path>", "wrote metrics <path>"); a ring that
// dropped events is warned about on `err`. Disables the recorders it
// wrote out.
void flush_outputs(const OutputFiles& files, std::ostream& out,
                   std::ostream& err);

}  // namespace mecsched::obs
