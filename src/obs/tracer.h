// Ring-buffered structured event tracer + the ScopedTimer RAII span.
//
// The tracer records complete spans and instant events into a
// fixed-capacity ring (obs/ring.h, shared with the flight recorder: the
// oldest events are overwritten, and the drops are counted) and exports
// them as Chrome `trace_event` JSON — loadable in chrome://tracing and
// Perfetto (obs/export.h). It is:
//
//   * disabled by default and near-zero cost while disabled: every record
//     call first checks one relaxed atomic and returns before touching the
//     clock, the lock or any allocation;
//   * thread-safe: events carry the recording thread's id so parallel
//     LP-HTA cluster solves render as separate tracks.
//
// ScopedTimer is the one instrumentation primitive call sites use: it
// always feeds its duration into the registry histogram `<name>.seconds`
// (so metrics exist even with tracing off — bench wall-clock lines and
// traces agree by construction), and additionally emits a Complete ('X')
// trace event when the tracer is enabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring.h"

namespace mecsched::obs {

class Histogram;

// Chrome trace_event phases we emit.
enum class Phase : char {
  kComplete = 'X',  // begin + duration in one event
  kInstant = 'i',
};

struct TraceEvent {
  std::string name;
  std::string category;
  Phase phase = Phase::kInstant;
  std::int64_t ts_us = 0;   // microseconds since the tracer epoch
  std::int64_t dur_us = 0;  // kComplete only
  std::uint64_t tid = 0;    // hashed std::thread::id
  std::string args_json;    // pre-rendered JSON object body, may be empty
};

class Tracer {
 public:
  // The process-wide instance; disabled until enable() is called.
  static Tracer& global();

  // Starts (or restarts) capture with the given ring capacity. Clears any
  // previously captured events and resets the timestamp epoch.
  void enable(std::size_t capacity = 1 << 16);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Record calls are no-ops while disabled.
  void complete(std::string_view name, std::string_view category,
                std::int64_t ts_us, std::int64_t dur_us,
                const std::string& args_json = "");
  void instant(const std::string& name, const std::string& category,
               const std::string& args_json = "");

  // Microseconds since the tracer epoch (enable() time). Valid to call
  // while disabled (epoch then defaults to construction time).
  std::int64_t now_us() const;

  // Oldest-first copy of the buffered events.
  std::vector<TraceEvent> snapshot() const;
  // Events overwritten because the ring was full.
  std::uint64_t dropped() const { return ring_.dropped(); }

 private:
  void push(TraceEvent ev);
  static std::int64_t steady_now_ns();

  std::atomic<bool> enabled_{false};
  // Steady-clock nanoseconds; atomic, as now_us() reads it lock-free
  // while enable() rewrites it.
  std::atomic<std::int64_t> epoch_ns_{steady_now_ns()};
  Ring<TraceEvent> ring_{1 << 16};
};

// RAII span: times the enclosed scope. Duration always lands in the
// registry histogram `<name>.seconds`; a Complete trace event is emitted
// iff the tracer was enabled when the timer was constructed. `args_json`
// (a rendered JSON object body like "\"station\":3") is only worth
// building when tracer().enabled() — guard at the call site.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name, std::string category = "mecsched",
                       std::string args_json = "");
  // Hot-path form: `histogram` is the registry's `<name>.seconds`,
  // resolved once by the caller (a function-local static — registry
  // references survive reset()), so opening the span builds no string and
  // takes no registry lock. `name` and `category` are not copied and must
  // outlive the span (string literals do).
  ScopedTimer(Histogram& histogram, std::string_view name,
              std::string_view category, std::string args_json = "");
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Seconds elapsed so far; usable before destruction (bench prints it).
  double elapsed_s() const;

 private:
  void start();

  // Storage behind name_/category_ for the string-taking constructor.
  std::string owned_name_;
  std::string owned_category_;
  std::string_view name_;
  std::string_view category_;
  std::string args_json_;
  std::chrono::steady_clock::time_point start_;
  std::int64_t start_us_ = 0;
  Histogram* histogram_ = nullptr;
  bool traced_ = false;
};

}  // namespace mecsched::obs
