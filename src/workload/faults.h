// Stochastic fault-schedule generation — the churn workloads `mecsched
// churn` and the event simulator are measured against.
//
// Three independent processes, each a pure function of (config, seed):
//   * device churn: every device alternates up/down with exponential
//     time-between-failures (MTBF) and time-to-repair (MTTR), the classic
//     renewal model of node availability;
//   * cell outages: each base station suffers Poisson-arriving outage
//     windows of exponential duration. An outage is *correlated*: with
//     `correlated_device_prob` each device of the cluster drops with its
//     station (the radio masts power the neighbourhood) and recovers when
//     the station does;
//   * link fading: Poisson-arriving degradation windows per device that
//     multiply its radio rates by a factor drawn uniformly from
//     [min_degrade_factor, 1).
//
// Rates of 0 disable a process, so the default config generates an empty
// schedule.
#pragma once

#include <cstdint>

#include "mec/topology.h"
#include "sim/fault_schedule.h"

namespace mecsched::workload {

struct FaultModelConfig {
  double horizon_s = 60.0;  // generate events in [0, horizon_s)

  // Device churn (exponential MTBF/MTTR). mtbf_s == 0 disables.
  double device_mtbf_s = 0.0;
  double device_mttr_s = 5.0;

  // Cell outages. outage_rate == 0 disables.
  double station_outage_rate_per_s = 0.0;   // Poisson arrivals per station
  double station_outage_duration_s = 10.0;  // mean (exponential)
  double correlated_device_prob = 0.0;      // devices dropping with the cell

  // Link fading. fade_rate == 0 disables.
  double link_fade_rate_per_s = 0.0;     // Poisson arrivals per device
  double link_fade_duration_s = 5.0;     // mean (exponential)
  double min_degrade_factor = 0.25;      // factor ~ U[min, 1)

  std::uint64_t seed = 1;
};

// Samples a schedule for `topology`. Deterministic in (config, topology
// shape); device/station ids refer to the given topology.
sim::FaultSchedule make_fault_schedule(const FaultModelConfig& config,
                                       const mec::Topology& topology);

}  // namespace mecsched::workload
