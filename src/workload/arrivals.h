// Poisson arrival process on top of the holistic scenario generator — the
// task streams `mecsched online` and `mecsched churn` run through the
// serve daemon (serve/stream.h).
#pragma once

#include <vector>

#include "mec/task.h"
#include "mec/topology.h"
#include "workload/scenario.h"

namespace mecsched::workload {

struct ArrivalConfig {
  ScenarioConfig scenario{};
  // Mean arrivals per second (exponential inter-arrival gaps).
  double arrival_rate_per_s = 20.0;
};

struct TimedScenario {
  mec::Topology topology;
  std::vector<mec::TimedTask> tasks;  // sorted by release time
};

TimedScenario make_timed_scenario(const ArrivalConfig& config);

}  // namespace mecsched::workload
