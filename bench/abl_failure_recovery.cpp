// Ablation — device-failure blast radius and recovery. Kills one device at
// t = 0 under an LP-HTA plan, measures how many tasks die in simulation,
// repairs the plan with replan_after_device_failure, and verifies the
// repaired plan loses nothing further.
#include <iostream>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "assign/recovery.h"
#include "bench/bench_common.h"
#include "metrics/series.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

int main() {
  const mecsched::bench::ObsSession obs_session("abl_failure_recovery");
  using namespace mecsched;
  bench::print_header("Ablation", "device failure blast radius and recovery",
                      "kill device 0 at t=0 under an LP-HTA plan; tasks "
                      "100..400, 50 devices, 5 stations");

  metrics::SeriesCollector series(
      "tasks", {"failed-unrepaired", "lost-after-repair", "repaired-failed",
                "surviving-energy-J"});

  bool repair_always_clean = true;
  for (double x = 100; x <= 400; x += 100) {
    for (std::uint64_t rep = 1; rep <= bench::kRepetitions; ++rep) {
      workload::ScenarioConfig cfg;
      cfg.num_devices = bench::kDevices;
      cfg.num_base_stations = bench::kStations;
      cfg.num_tasks = static_cast<std::size_t>(x);
      cfg.seed = rep * 449 + static_cast<std::uint64_t>(x);
      const auto s = workload::make_scenario(cfg);
      const assign::HtaInstance inst(s.topology, s.tasks);
      const auto plan = assign::LpHta().assign(inst);

      sim::SimOptions fail;
      fail.faults = sim::FaultSchedule({{0.0, sim::FaultKind::kDeviceFail, 0}});
      const sim::SimResult broken = sim::simulate(inst, plan, fail);

      const auto repaired = assign::replan_after_device_failure(inst, plan, 0);
      const sim::SimResult after = sim::simulate(inst, repaired.assignment, fail);
      repair_always_clean = repair_always_clean && after.failed_tasks == 0;

      series.add(x, "failed-unrepaired",
                 static_cast<double>(broken.failed_tasks));
      series.add(x, "lost-after-repair",
                 static_cast<double>(repaired.lost_issued + repaired.lost_data));
      series.add(x, "repaired-failed",
                 static_cast<double>(after.failed_tasks));
      series.add(x, "surviving-energy-J", after.total_energy_j);
    }
  }

  bench::print_table(series, 2);
  bench::maybe_write_csv(series, "abl_failure_recovery");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(repair_always_clean,
               "the repaired plan never touches the dead device");
  check.expect(at(400, "failed-unrepaired") > 0.0,
               "an unrepaired plan loses tasks when a device dies");
  check.expect(at(400, "lost-after-repair") <= at(400, "failed-unrepaired") + 1e-9,
               "repair loses no more than the failure itself");
  return check.exit_code();
}
