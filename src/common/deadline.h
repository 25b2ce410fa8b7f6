// Real-time solve budgets: a monotonic-clock `Deadline`, a cooperative
// `CancellationToken` threaded through every solver loop, and the
// process-wide default budget installed by the CLI's global `--budget-ms`.
//
// The contract (docs/robustness.md) is *anytime degradation*: a solver that
// observes an expired token stops at the next iteration boundary and returns
// the best answer it holds (SolveStatus::kDeadline), it never hangs and never
// throws for an expired budget. `expired()` costs one relaxed atomic load
// plus, when a deadline is set, one steady_clock read — cheap enough for a
// per-pivot check.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

namespace mecsched {

// A point on the monotonic clock. Default-constructed deadlines are
// unlimited: `expired()` is always false and `remaining_s()` is +infinity.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  static Deadline unlimited() { return Deadline{}; }
  // Throws ModelError for negative or non-finite budgets. A zero budget is
  // legal and is already expired: callers get an immediate kDeadline, which
  // is exactly the degenerate case the fallback floor exists for.
  static Deadline after_s(double seconds);
  static Deadline after_ms(double ms) { return after_s(ms * 1e-3); }
  static Deadline at(Clock::time_point when);

  bool is_unlimited() const { return !bounded_; }
  bool expired() const { return bounded_ && Clock::now() >= at_; }

  // Seconds until expiry, clamped at zero; +infinity when unlimited.
  double remaining_s() const;
  double remaining_ms() const;

  // The sooner of the two (an unlimited deadline never wins).
  static Deadline earlier(const Deadline& a, const Deadline& b);

 private:
  bool bounded_ = false;
  Clock::time_point at_{};
};

// Cooperative cancellation: a nullable shared flag (set by a
// CancellationSource, e.g. on operator Ctrl-C or epoch rollover) combined
// with a Deadline. Tokens are cheap value types; copies observe the same
// flag. A default-constructed token never expires.
class CancellationToken {
 public:
  CancellationToken() = default;
  explicit CancellationToken(Deadline deadline) : deadline_(deadline) {}

  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }
  bool expired() const { return cancel_requested() || deadline_.expired(); }
  bool unlimited() const { return !flag_ && deadline_.is_unlimited(); }

  const Deadline& deadline() const { return deadline_; }

  // The same flag, with the deadline tightened to the sooner of the two.
  CancellationToken with_deadline(Deadline deadline) const;

 private:
  friend class CancellationSource;
  std::shared_ptr<const std::atomic<bool>> flag_;
  Deadline deadline_;
};

// Owns the flag behind a family of tokens.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  CancellationToken token(Deadline deadline = Deadline::unlimited()) const;

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

// Process-wide default per-solve budget, installed by the CLI's global
// `--budget-ms` for the duration of one invocation (same pattern as
// exec::ThreadPool::set_default_jobs). Zero means "no default budget".
// Throws ModelError for negative or non-finite values.
void set_default_solve_budget_ms(double ms);
double default_solve_budget_ms();

// The token a solver entry point should actually honour: `token` as given
// when it already carries a deadline, otherwise tightened with the process
// default budget (if one is installed; the cancel flag is preserved either
// way). Solvers call this once per solve, at entry — never per iteration.
CancellationToken effective_solve_token(const CancellationToken& token);

}  // namespace mecsched
