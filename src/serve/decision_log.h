// The decision log: one line per task disposition — terminal (decide,
// rescue, reject, expire, lost-issuer, exhausted, abandoned) or
// re-admission (retry) — in the exact order the daemon settled it.
//
// This is the daemon's externally-visible output and its determinism
// witness: CI replays the same trace at --jobs 1 and --jobs 4 and diffs
// the CSV byte-for-byte. Shard solves run in parallel, but dispositions
// are appended from the epoch loop in shard order, so the log never sees
// the worker schedule. Numbers are rendered with a fixed %.9g format —
// enough digits to be injective for the model's doubles, no
// locale/stream-state dependence.
#pragma once

#include <cstdint>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "assign/assignment.h"
#include "mec/task.h"

namespace mecsched::serve {

enum class DecisionKind {
  kDecide = 0,    // placed; `decision` and latency/energy are meaningful
  kReject,        // refused at admission (queue full)
  kExpire,        // residual slack gone before a successful attempt
  kLostIssuer,    // issuer left; nobody to deliver the result to
  kRetry,         // interrupted or unplaceable; re-admitted with backoff
  kExhausted,     // max_attempts consumed without completing
  kAbandoned,     // daemon stopped (signal) with the task still open
  kRescue,        // owner gone; completed by DTA re-division across the
                  // surviving replicas (`decision` is kLocal)
};

std::string to_string(DecisionKind k);

// The two enums sit side by side so the record stays 80 bytes with
// finish_s in it: a serve run keeps one record per disposition.
struct DecisionRecord {
  std::size_t epoch = 0;
  double time_s = 0.0;  // virtual clock at disposition
  mec::TaskId task{};
  DecisionKind kind = DecisionKind::kDecide;
  assign::Decision decision = assign::Decision::kCancelled;
  std::size_t shard = 0;
  std::size_t attempt = 0;   // admissions consumed when disposed
  double latency_s = 0.0;    // admission-to-decision (kDecide only)
  double energy_j = 0.0;     // kDecide / kRescue only
  // Analytic completion (kDecide / kRescue only), for in-process readers
  // such as serve/stream.h. Neither written to the CSV nor mixed into the
  // digest.
  double finish_s = 0.0;
};

class DecisionLog {
 public:
  void append(DecisionRecord r) { records_.push_back(std::move(r)); }
  // Room for `records` records in all without a reallocation.
  void reserve(std::size_t records) { records_.reserve(records); }

  const std::vector<DecisionRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }

  // Deterministic CSV: header + one line per record, append order.
  void write_csv(std::ostream& out) const;

  // Order-sensitive digest of every field of every record — the compact
  // equality the determinism tests assert.
  std::uint64_t digest() const;

 private:
  std::vector<DecisionRecord> records_;
};

}  // namespace mecsched::serve
