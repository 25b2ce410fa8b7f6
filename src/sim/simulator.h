// Discrete-event execution of an assignment plan.
//
// Replays every placed task through the same physical stages the Sec. II
// analytic model prices — external fetch, uplinks, backhaul/WAN hops,
// computation, result download — as events on a shared timeline.
//
// Two modes:
//   * model_contention = false (default): every task has private copies of
//     its links/CPUs, so per-task latency and energy must equal the
//     CostModel values exactly. This is the independent validation of the
//     analytic model (the `abl_sim_vs_analytic` benchmark and the
//     integration tests rely on it).
//   * model_contention = true: devices' radios and CPUs and each base
//     station's CPU are FIFO servers; concurrent tasks queue. Latencies
//     then dominate the analytic ones — an extension the paper's model
//     abstracts away, useful for judging how optimistic the analytic
//     numbers are.
#pragma once

#include <vector>

#include "assign/assignment.h"
#include "assign/hta_instance.h"
#include "sim/fault_schedule.h"

namespace mecsched::sim {

struct SimOptions {
  bool model_contention = false;

  // Release times (seconds), one per task; empty means everything is
  // released at t = 0. Used to replay online schedules.
  std::vector<double> release_times;

  // Fault injection: an ordered timeline of device failures/recoveries,
  // base-station outages and link degradations (see fault_schedule.h).
  // A stage that would *start* on dead hardware never runs; the task is
  // marked `failed` and its remaining stages (and energy) are skipped.
  // Stages already in flight when a failure hits are allowed to complete
  // (a transmission underway is modelled as already in the air). A stage
  // starting after the hardware *recovered* runs normally. Radio stages
  // starting under a degraded link take 1/factor times as long and burn
  // 1/factor times the energy (transmit power is constant; the factor is
  // sampled at the stage's start).
  FaultSchedule faults;
};

struct TaskTimeline {
  std::size_t task = 0;     // index into the instance
  double start_s = 0.0;
  double finish_s = 0.0;
  double energy_j = 0.0;
  bool placed = false;
  bool failed = false;      // killed by fault injection

  double latency_s() const { return finish_s - start_s; }
};

struct SimResult {
  std::vector<TaskTimeline> timelines;  // one per task (placed or not)
  double makespan_s = 0.0;
  double total_energy_j = 0.0;
  std::size_t events_processed = 0;
  std::size_t failed_tasks = 0;  // killed by failure injection

  // Busy time per shared server — populated only in contention mode
  // (empty/-zero otherwise, since without contention nothing is shared).
  std::vector<double> device_uplink_busy_s;
  std::vector<double> device_downlink_busy_s;
  std::vector<double> device_cpu_busy_s;
  std::vector<double> station_cpu_busy_s;
  double backhaul_busy_s = 0.0;
  double wan_busy_s = 0.0;

  // Peak utilization (busiest server's busy time / makespan); 0 without
  // contention data.
  double peak_utilization() const;
};

SimResult simulate(const assign::HtaInstance& instance,
                   const assign::Assignment& assignment,
                   SimOptions options = {});

}  // namespace mecsched::sim
