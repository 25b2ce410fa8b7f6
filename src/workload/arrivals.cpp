#include "workload/arrivals.h"

#include "common/error.h"

namespace mecsched::workload {

TimedScenario make_timed_scenario(const ArrivalConfig& config) {
  MECSCHED_REQUIRE(config.arrival_rate_per_s > 0.0,
                   "arrival rate must be positive");
  Scenario base = make_scenario(config.scenario);

  // Release times from a fresh stream so the static task attributes stay
  // identical to the quasi-static scenario with the same seed (the online
  // vs offline comparison needs that).
  Rng rng = Rng(config.scenario.seed).fork(0x4152'5249'5645ULL);  // "ARRIVE"
  TimedScenario out{std::move(base.topology), {}};
  out.tasks.reserve(base.tasks.size());
  double clock = 0.0;
  for (const mec::Task& task : base.tasks) {
    clock += rng.exponential(1.0 / config.arrival_rate_per_s);
    out.tasks.push_back(mec::TimedTask{task, clock});
  }
  return out;
}

}  // namespace mecsched::workload
