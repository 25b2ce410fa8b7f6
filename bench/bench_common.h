// Shared scaffolding for the figure-reproduction binaries.
//
// Each binary regenerates one table/figure of the paper's Sec. V: it
// sweeps the figure's x-axis, runs every algorithm the figure compares
// (averaging over a few seeds), prints the series as a fixed-width table,
// and appends the qualitative "shape" the paper reports so the output is
// self-checking.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "exec/thread_pool.h"
#include "metrics/series.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::bench {

// Default experiment scale mirroring Sec. V.A: 50 devices, 5 base
// stations; 3 seeds per cell for smoothing.
inline constexpr std::size_t kDevices = 50;
inline constexpr std::size_t kStations = 5;
inline constexpr std::size_t kRepetitions = 3;

// Worker count for the sweep fan-out (exec::SweepRunner): MECSCHED_JOBS
// when set, otherwise all hardware threads. The figure tables are
// byte-identical at every job count, so MECSCHED_JOBS is purely a
// wall-clock knob.
inline std::size_t sweep_jobs() { return exec::ThreadPool::default_jobs(); }

inline void print_header(const std::string& figure, const std::string& title,
                         const std::string& setup) {
  std::cout << "==============================================================\n"
            << figure << " — " << title << "\n"
            << "setup: " << setup << "\n"
            << "==============================================================\n";
}

inline void print_table(const metrics::SeriesCollector& series,
                        int precision = 3) {
  std::cout << series.to_table(precision) << std::flush;
}

// When MECSCHED_CSV_DIR is set, also dump the series as
// $MECSCHED_CSV_DIR/<figure>.csv so the plots can be regenerated
// externally; otherwise a no-op.
inline void maybe_write_csv(const metrics::SeriesCollector& series,
                            const std::string& figure) {
  const char* dir = std::getenv("MECSCHED_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + figure + ".csv";
  series.write_csv(path);
  std::cout << "csv: " << path << '\n';
}

inline std::string env_or_empty(const char* key) {
  const char* v = std::getenv(key);
  return v == nullptr ? std::string() : std::string(v);
}

// Uniform machine-readable bench output: every bench binary writes a
// BENCH_<name>.json (path override: MECSCHED_BENCH_OUT) with the schema
//
//   {
//     "schema": "mecsched.bench.v2",
//     "bench": "<name>",
//     "wall_seconds": <number>,
//     "values":   { "<key>": <number>, ... },   // bench-specific scalars
//     "flags":    { "<key>": <bool>,   ... },   // bench-specific booleans
//     "counters": { "<metric>": <count>, ... }  // registry counters
//   }
//
// NaN/Inf serialize as JSON null. tools/bench/trajectory.py validates the
// schema and gates values/flags against bench/baselines/<name>.json, so a
// bench opts into CI trajectory tracking just by set_value()-ing the
// numbers it wants gated. ObsSession owns one and writes it on
// destruction; reach it via ObsSession::telemetry().
class BenchTelemetry {
 public:
  static constexpr const char* kSchema = "mecsched.bench.v2";

  explicit BenchTelemetry(std::string name) : name_(std::move(name)) {
    path_ = env_or_empty("MECSCHED_BENCH_OUT");
    if (path_.empty()) path_ = "BENCH_" + name_ + ".json";
  }

  void set_value(const std::string& key, double v) { values_[key] = v; }
  void set_flag(const std::string& key, bool v) { flags_[key] = v; }
  const std::string& path() const { return path_; }

  void write(double wall_seconds) const {
    std::ostringstream os;
    os.precision(12);
    os << "{\n"
       << "  \"schema\": \"" << kSchema << "\",\n"
       << "  \"bench\": \"" << name_ << "\",\n"
       << "  \"wall_seconds\": ";
    num(os, wall_seconds);
    os << ",\n  \"values\": {";
    const char* sep = "";
    for (const auto& [k, v] : values_) {
      os << sep << "\n    \"" << k << "\": ";
      num(os, v);
      sep = ",";
    }
    os << (values_.empty() ? "" : "\n  ") << "},\n  \"flags\": {";
    sep = "";
    for (const auto& [k, v] : flags_) {
      os << sep << "\n    \"" << k << "\": " << (v ? "true" : "false");
      sep = ",";
    }
    os << (flags_.empty() ? "" : "\n  ") << "},\n  \"counters\": {";
    const auto counters = obs::Registry::global().counters();
    sep = "";
    for (const auto& [k, v] : counters) {
      os << sep << "\n    \"" << k << "\": " << v;
      sep = ",";
    }
    os << (counters.empty() ? "" : "\n  ") << "}\n}\n";
    std::ofstream f(path_);
    f << os.str();
  }

 private:
  static void num(std::ostringstream& os, double v) {
    if (std::isfinite(v)) {
      os << v;
    } else {
      os << "null";
    }
  }

  std::string name_;
  std::string path_;
  std::map<std::string, double> values_;
  std::map<std::string, bool> flags_;
};

// Times the whole binary under an obs::ScopedTimer (so the wall-clock the
// bench prints and the `bench.<name>` span in a trace agree by
// construction) and, mirroring the CLI's global flags, honors
//
//   MECSCHED_TRACE_OUT=trace.json   write a Chrome trace of the run
//   MECSCHED_METRICS_OUT=m.prom     write the registry as Prometheus text
//   MECSCHED_OBS_SUMMARY=1          print the metric summary table
//   MECSCHED_FLIGHT_OUT=f.jsonl     per-solve flight record (JSONL)
//
// Declare one at the top of main(); everything happens on destruction,
// including the BENCH_<name>.json telemetry dump (see BenchTelemetry).
class ObsSession {
 public:
  explicit ObsSession(std::string name)
      : name_(std::move(name)), telemetry_(name_) {
    trace_path_ = env_or_empty("MECSCHED_TRACE_OUT");
    metrics_path_ = env_or_empty("MECSCHED_METRICS_OUT");
    flight_path_ = env_or_empty("MECSCHED_FLIGHT_OUT");
    summary_ = !env_or_empty("MECSCHED_OBS_SUMMARY").empty();
    if (!trace_path_.empty()) obs::Tracer::global().enable();
    if (!flight_path_.empty()) {
      obs::FlightRecorder::global().clear();
      obs::FlightRecorder::global().enable();
    }
    timer_.emplace("bench." + name_, "bench");
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  // Bench-specific numbers destined for BENCH_<name>.json (and the CI
  // trajectory gate). Mutable through a const session so the usual
  // `const ObsSession obs_session(...)` at the top of main() still works.
  BenchTelemetry& telemetry() const { return telemetry_; }

  ~ObsSession() {
    const double wall_seconds = timer_->elapsed_s();
    std::cout << "wall: " << wall_seconds << " s\n";
    timer_.reset();  // close the span so it lands in the trace + registry
    if (!trace_path_.empty()) {
      const std::uint64_t trace_drops = obs::Tracer::global().dropped();
      obs::write_chrome_trace(obs::Tracer::global(), trace_path_);
      obs::Tracer::global().disable();
      std::cout << "trace: " << trace_path_ << '\n';
      if (trace_drops > 0) {
        std::cerr << "warning: tracer ring overflowed; dropped "
                  << trace_drops << " events\n";
      }
    }
    if (!metrics_path_.empty()) {
      obs::write_prometheus(obs::Registry::global(), metrics_path_);
      std::cout << "metrics: " << metrics_path_ << '\n';
    }
    if (!flight_path_.empty()) {
      obs::FlightRecorder& flight = obs::FlightRecorder::global();
      obs::write_flight_jsonl(flight, flight_path_);
      std::cout << "flight: " << flight_path_ << '\n';
      if (flight.dropped() > 0) {
        std::cerr << "warning: flight recorder ring overflowed; dropped "
                  << flight.dropped() << " records\n";
      }
      flight.disable();
    }
    if (summary_) std::cout << obs::summary_table(obs::Registry::global());
    telemetry_.write(wall_seconds);
    std::cout << "telemetry: " << telemetry_.path() << '\n';
  }

 private:
  std::string name_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string flight_path_;
  bool summary_ = false;
  mutable BenchTelemetry telemetry_;
  std::optional<obs::ScopedTimer> timer_;
};

// Prints a PASS/FAIL line for one expected qualitative relationship. The
// binaries exit non-zero if any expectation fails, so `for b in
// build/bench/*; do $b; done` doubles as a reproduction check.
class ShapeChecker {
 public:
  void expect(bool condition, const std::string& description) {
    std::cout << (condition ? "  [shape OK]   " : "  [shape FAIL] ")
              << description << '\n';
    ok_ = ok_ && condition;
  }

  int exit_code() const { return ok_ ? EXIT_SUCCESS : EXIT_FAILURE; }

 private:
  bool ok_ = true;
};

}  // namespace mecsched::bench
