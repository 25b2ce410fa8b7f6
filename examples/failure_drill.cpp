// Failure drill — operations-side tooling on top of the paper's
// algorithms: plan with LP-HTA, kill the busiest device in simulation,
// measure the blast radius, repair the plan, and ask the shadow-price
// analysis where extra capacity would help most.
//
//   $ ./build/examples/failure_drill
#include <algorithm>
#include <iostream>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "assign/recovery.h"
#include "assign/sensitivity.h"
#include "common/table.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

int main() {
  using namespace mecsched;

  workload::ScenarioConfig cfg;
  cfg.num_devices = 25;
  cfg.num_base_stations = 5;
  cfg.num_tasks = 100;
  cfg.seed = 77;
  // Keep capacities tight so the shadow-price analysis has binding rows to
  // price (with slack capacity every price is rightly zero).
  cfg.device_capacity_min = 2.0;
  cfg.device_capacity_max = 4.0;
  cfg.station_capacity_per_device = 1.5;
  const auto s = workload::make_scenario(cfg);
  const assign::HtaInstance instance(s.topology, s.tasks);
  const assign::Assignment plan = assign::LpHta().assign(instance);

  // Pick the device carrying the most local tasks — the worst one to lose.
  std::vector<int> local_tasks(s.topology.num_devices(), 0);
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    if (plan.decisions[t] == assign::Decision::kLocal) {
      ++local_tasks[instance.task(t).id.user];
    }
  }
  const std::size_t victim = static_cast<std::size_t>(
      std::max_element(local_tasks.begin(), local_tasks.end()) -
      local_tasks.begin());

  std::cout << "drill: device " << victim << " (busiest: "
            << local_tasks[victim] << " local tasks) dies at t = 0\n\n";

  // Without repair.
  sim::SimOptions failure;
  failure.faults =
      sim::FaultSchedule({{0.0, sim::FaultKind::kDeviceFail, victim}});
  const sim::SimResult broken = sim::simulate(instance, plan, failure);

  // With repair.
  const assign::RecoveryResult repaired =
      assign::replan_after_device_failure(instance, plan, victim);
  const sim::SimResult after =
      sim::simulate(instance, repaired.assignment, failure);

  Table table({"plan", "tasks failed in sim", "tasks lost (unavoidable)",
               "energy of survivors (J)"});
  table.add_row({"original, unrepaired", std::to_string(broken.failed_tasks),
                 "-", Table::num(broken.total_energy_j, 1)});
  table.add_row({"after replan",
                 std::to_string(after.failed_tasks),
                 std::to_string(repaired.lost_issued + repaired.lost_data),
                 Table::num(after.total_energy_j, 1)});
  std::cout << table << '\n';

  // Where would one extra unit of capacity help most now?
  const assign::ShadowPrices prices = assign::capacity_shadow_prices(instance);
  std::size_t best_station = 0;
  for (std::size_t b = 1; b < prices.station.size(); ++b) {
    if (prices.station[b] > prices.station[best_station]) best_station = b;
  }
  std::cout << "capacity advice: station " << best_station
            << " has the highest shadow price ("
            << Table::num(prices.station[best_station], 3)
            << " J saved per extra resource unit); upgrade it first.\n";

  return after.failed_tasks == 0 ? 0 : 1;
}
