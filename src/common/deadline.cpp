#include "common/deadline.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace mecsched {

namespace {

std::atomic<double>& budget_override() {
  static std::atomic<double> ms{0.0};
  return ms;
}

}  // namespace

Deadline Deadline::after_s(double seconds) {
  MECSCHED_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
                   "deadline budget must be a finite non-negative number of "
                   "seconds");
  Deadline d;
  d.bounded_ = true;
  d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  return d;
}

Deadline Deadline::at(Clock::time_point when) {
  Deadline d;
  d.bounded_ = true;
  d.at_ = when;
  return d;
}

double Deadline::remaining_s() const {
  if (!bounded_) return std::numeric_limits<double>::infinity();
  const double s = std::chrono::duration<double>(at_ - Clock::now()).count();
  return s > 0.0 ? s : 0.0;
}

double Deadline::remaining_ms() const {
  const double s = remaining_s();
  return std::isfinite(s) ? s * 1e3 : s;
}

Deadline Deadline::earlier(const Deadline& a, const Deadline& b) {
  if (!a.bounded_) return b;
  if (!b.bounded_) return a;
  return a.at_ <= b.at_ ? a : b;
}

CancellationToken CancellationToken::with_deadline(Deadline deadline) const {
  CancellationToken t = *this;
  t.deadline_ = Deadline::earlier(deadline_, deadline);
  return t;
}

CancellationToken CancellationSource::token(Deadline deadline) const {
  CancellationToken t;
  t.flag_ = flag_;
  t.deadline_ = deadline;
  return t;
}

void set_default_solve_budget_ms(double ms) {
  MECSCHED_REQUIRE(std::isfinite(ms) && ms >= 0.0,
                   "--budget-ms must be a finite non-negative number");
  budget_override().store(ms, std::memory_order_relaxed);
}

double default_solve_budget_ms() {
  return budget_override().load(std::memory_order_relaxed);
}

CancellationToken effective_solve_token(const CancellationToken& token) {
  if (!token.deadline().is_unlimited()) return token;
  const double ms = default_solve_budget_ms();
  if (ms <= 0.0) return token;
  return token.with_deadline(Deadline::after_ms(ms));
}

}  // namespace mecsched
