// Per-solve flight recorder: one ring of structured SolveRecords.
//
// Aggregate metrics answer "how many solves missed their deadline"; the
// flight recorder answers "which solve, in which layer, with how much
// budget left, warm-started or not, with which faults injected" — the
// record you autopsy after a SolverError, an AuditError or a deadline
// expiry. Every instrumented layer (lp/, assign/, control/, exec/)
// appends one record per solve/decision/cell; the CLI's --flight-out flag
// (and MECSCHED_FLIGHT_OUT for the bench binaries) dumps the ring as
// JSONL on exit — even when the command failed, because the trace of the
// failing run is precisely the artifact worth keeping.
//
// Cost contract: disabled (the default), record() is never reached —
// call sites gate on enabled(), a single relaxed atomic load, before
// building the record. Enabled, records append to one mutex-guarded ring
// of 32,768 (obs/ring.h): the newest win, dropped() counts the rest.
//
// Order contract: seq is the append position. One thread's records
// append in the order they are cut; a ThreadPool::map task's records are
// held for it (Hold: thread-local, no shared lock) and appended in index
// order after the join. So the record is one sequence at any worker
// count; only `seconds` and `deadline_residual_ms` read the clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "obs/ring.h"

namespace mecsched::obs {

// One solve/decision/cell, as the flight recorder saw it end.
struct SolveRecord {
  std::uint64_t seq = 0;  // append position, stamped by snapshot()
  // Which subsystem reported: "lp", "assign", "control", "exec".
  std::string layer;
  // The engine/rung inside the layer: "simplex", "ipm", "lp_hta",
  // "LP-HTA"/"HGOS"/"LocalFirst" (fallback rungs), "decision",
  // "sweep_cell".
  std::string engine;
  // Terminal state: an lp::to_string(SolveStatus) value ("optimal",
  // "deadline", ...), or "served"/"failed"/"skipped" (fallback rungs),
  // "ok"/"error"/"audit-error" (assign/exec layers).
  std::string status;
  // Free-form context: error message, cell index, station id. May be "".
  std::string detail;
  double seconds = 0.0;
  std::uint64_t iterations = 0;  // pivots / IPM iterations / LP totals
  // Budget left when the record was cut, in milliseconds; negative when
  // past the deadline, NaN when the solve ran unlimited.
  double deadline_residual_ms = std::numeric_limits<double>::quiet_NaN();
  bool deadline_hit = false;  // ended via the kDeadline anytime path
  bool warm_start = false;
  std::uint64_t chaos_hits = 0;  // chaos::local_injections() delta
  // Audit verdict: "" (not audited at this site), "ok", or the
  // AuditError message.
  std::string audit;
};

class FlightRecorder {
 public:
  // The process-wide instance; disabled until enable() is called.
  static FlightRecorder& global();

  // Starts (or restarts) recording into an empty ring of `capacity`.
  void enable(std::size_t capacity = 1 << 15);
  void disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Appends a record to this thread's Hold, or else to the ring. No-op
  // while disabled, but call sites should gate on enabled() and skip
  // building the record at all.
  void record(SolveRecord r);

  // Append-ordered copy of every buffered record, seq stamped.
  std::vector<SolveRecord> snapshot() const;
  std::uint64_t recorded() const { return ring_.pushed(); }
  std::uint64_t dropped() const { return ring_.dropped(); }
  void clear() { ring_.clear(); }

  // Convenience for call sites stamping deadline fields: remaining budget
  // in ms, NaN for an unlimited deadline.
  static double residual_ms(const Deadline& d) {
    return d.is_unlimited() ? std::numeric_limits<double>::quiet_NaN()
                            : d.remaining_ms();
  }

  // While alive, record() on this thread appends to `into`, not the
  // ring; the hold it replaced comes back when it ends.
  class Hold {
   public:
    explicit Hold(std::vector<SolveRecord>& into);
    ~Hold();
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    std::vector<SolveRecord>* outer_;
  };

 private:
  std::atomic<bool> enabled_{false};
  Ring<SolveRecord> ring_{1 << 15};
};

}  // namespace mecsched::obs
