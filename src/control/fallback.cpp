#include "control/fallback.h"

#include <chrono>
#include <numeric>

#include "assign/baselines.h"
#include "assign/hgos.h"
#include "common/error.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::control {

std::string to_string(FallbackRung r) {
  switch (r) {
    case FallbackRung::kLpHta:
      return "LP-HTA";
    case FallbackRung::kHgos:
      return "HGOS";
    case FallbackRung::kLocalFirst:
      return "LocalFirst";
  }
  return "unknown";
}

std::size_t RungHistogram::total() const {
  return std::accumulate(served.begin(), served.end(), std::size_t{0});
}

FallbackChain::FallbackChain(assign::LpHtaOptions lp, exec::ThreadPool* pool) {
  rungs_.push_back(std::make_shared<assign::LpHta>(lp, pool));
  rungs_.push_back(std::make_shared<assign::Hgos>());
  rungs_.push_back(std::make_shared<assign::LocalFirst>());
}

FallbackChain::FallbackChain(
    std::vector<std::shared_ptr<assign::Assigner>> rungs)
    : rungs_(std::move(rungs)) {
  MECSCHED_REQUIRE(!rungs_.empty() && rungs_.size() <= kNumRungs,
                   "fallback chain needs 1.." + std::to_string(kNumRungs) +
                       " rungs, got " + std::to_string(rungs_.size()));
}

assign::Assignment FallbackChain::assign(const assign::HtaInstance& instance,
                                         FallbackRung& served) const {
  return assign(instance, served, CancellationToken{});
}

assign::Assignment FallbackChain::assign(const assign::HtaInstance& instance,
                                         FallbackRung& served,
                                         const CancellationToken& cancel)
    const {
  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  if (!cancel.deadline().is_unlimited()) {
    reg.histogram("fallback.budget_ms").observe(cancel.deadline()
                                                    .remaining_ms());
  }
  // One flight record per rung outcome: served, failed or skipped — the
  // post-mortem view of how a decision degraded down the chain.
  const auto cut_record = [&](FallbackRung rung, const std::string& status,
                              const std::string& detail, double seconds) {
    obs::SolveRecord rec;
    rec.layer = "control";
    rec.engine = to_string(rung);
    rec.status = status;
    rec.detail = detail;
    rec.seconds = seconds;
    rec.deadline_residual_ms =
        obs::FlightRecorder::residual_ms(cancel.deadline());
    rec.deadline_hit = cancel.expired();
    flight.record(std::move(rec));
  };
  std::string last_error;
  for (std::size_t r = 0; r < rungs_.size(); ++r) {
    const auto rung = static_cast<FallbackRung>(r);
    if (r + 1 < rungs_.size() && cancel.expired()) {
      // The budget is gone; don't even start a non-final rung, drop
      // straight toward the floor.
      reg.counter("fallback.skipped." + to_string(rung)).add();
      if (flight.enabled()) cut_record(rung, "skipped", last_error, 0.0);
      if (last_error.empty()) last_error = "budget exhausted";
      continue;
    }
    const auto rung_start = std::chrono::steady_clock::now();
    const auto rung_ms = [&rung_start] {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - rung_start)
          .count();
    };
    try {
      assign::Assignment plan = rungs_[r]->assign(instance, cancel);
      served = rung;
      const double ms = rung_ms();
      reg.counter("fallback.served." + to_string(rung)).add();
      reg.histogram("fallback.rung_ms").observe(ms);
      if (flight.enabled()) cut_record(rung, "served", "", ms * 1e-3);
      return plan;
    } catch (const SolverError& e) {
      last_error = e.what();
      const double ms = rung_ms();
      // A rung falling over is exactly the kind of rare event a trace
      // should pin to a timestamp.
      reg.counter("fallback.failed." + to_string(rung)).add();
      reg.histogram("fallback.rung_ms").observe(ms);
      if (flight.enabled()) cut_record(rung, "failed", e.what(), ms * 1e-3);
      tracer.instant("fallback.rung_failed", "control",
                     tracer.enabled()
                         ? "\"rung\":\"" + to_string(rung) + "\""
                         : std::string());
    }
  }
  throw SolverError("every fallback rung failed; last error: " + last_error);
}

}  // namespace mecsched::control
