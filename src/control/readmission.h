// The serve daemon's waiting room (serve/daemon.h): the queue depth cap
// and the retry budget with exponential epoch backoff, in one place. The
// contract:
//
//   * admit() enters a new arrival, ready at the given epoch, or refuses
//     it (returns false) when max_queue tasks are already waiting; both
//     outcomes are counted;
//   * retry() re-enters a task after a failed attempt, delayed by
//     2^(attempts-1) epochs, or refuses (returns false) once max_attempts
//     admissions are consumed — the caller then settles the task's
//     terminal fate;
//   * take_ready() pops everything ready at an epoch boundary *in
//     admission order*. Batch order is part of the determinism contract:
//     the daemon feeds the batch to solvers whose output depends on task
//     order, and a replayed trace must produce a byte-identical decision
//     log.
//
// The attempt count itself lives with the caller's task record; retry()
// takes it as an argument.
#pragma once

#include <cstddef>
#include <vector>

namespace mecsched::control {

struct ReadmissionOptions {
  // Admissions per task: 1 = no retry. Each admission (first or re-)
  // consumes one attempt.
  std::size_t max_attempts = 3;
  // New arrivals are rejected while this many tasks wait (re-admissions
  // in backoff included); 0 = unlimited. Re-admissions are never refused
  // for depth.
  std::size_t max_queue = 0;
};

// One task awaiting (re-)admission.
struct ReadmissionEntry {
  std::size_t id = 0;           // caller-scoped task identifier
  std::size_t ready_epoch = 0;  // first epoch eligible for take_ready()
};

class ReadmissionQueue {
 public:
  // Throws ModelError for max_attempts == 0.
  explicit ReadmissionQueue(ReadmissionOptions options = {});

  // First admission, ready at `epoch`. False (and counted as rejected)
  // when max_queue tasks already wait.
  bool admit(std::size_t id, std::size_t epoch);

  // Re-admission after a failed attempt (`attempts` already consumed,
  // >= 1). True when the retry was scheduled; false when the attempt
  // budget is exhausted.
  bool retry(std::size_t id, std::size_t attempts, std::size_t epoch);

  // Pops every entry with ready_epoch <= epoch, preserving admission
  // order; later entries keep waiting. The batch lives in a buffer the
  // queue reuses: it stays valid until the next take_ready(), across
  // admit() and retry() calls.
  const std::vector<ReadmissionEntry>& take_ready(std::size_t epoch);

  std::size_t waiting() const { return waiting_.size(); }
  bool empty() const { return waiting_.empty(); }
  // admit() calls that entered / were refused.
  std::size_t admitted() const { return admitted_; }
  std::size_t rejected() const { return rejected_; }
  // Successful retry() calls (re-admissions beyond first attempts).
  std::size_t retries() const { return retries_; }

 private:
  ReadmissionOptions options_;
  std::vector<ReadmissionEntry> waiting_;
  std::vector<ReadmissionEntry> ready_;  // take_ready()'s batch
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t retries_ = 0;
};

}  // namespace mecsched::control
