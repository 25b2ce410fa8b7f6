// Traffic monitoring — the paper's motivating divisible workload (Sec. I):
// "a user wants to know the average flow rate of vehicles in the whole
// city, while the data sampled by his mobile device only shows the flow
// rate in a small region."
//
// Models a city as a grid of road segments (data blocks). Every vehicle's
// device continuously samples the segments around its route, so segment
// readings are replicated across overlapping devices. Average-flow queries
// are divisible (an average aggregates partial sums), so the DTA pipeline
// can answer them without moving raw readings.
//
//   $ ./build/examples/traffic_monitoring
#include <iostream>
#include <vector>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "dta/pipeline.h"
#include "workload/shared_data.h"

int main() {
  using namespace mecsched;

  // A 20x20 grid of road segments, each contributing ~50 kB of samples per
  // window; 60 vehicles across 6 cells; every segment is covered by a
  // handful of passing vehicles. 40 concurrent "city average" queries,
  // each over a random district (subset of segments).
  workload::SharedDataConfig cfg;
  cfg.num_devices = 60;
  cfg.num_base_stations = 6;
  cfg.num_items = 400;       // road segments
  cfg.item_kb = 50.0;        // samples per segment per window
  cfg.max_extra_owners = 6;  // overlapping routes
  cfg.num_tasks = 40;        // concurrent district queries
  cfg.max_input_kb = 2500.0; // biggest district ~50 segments
  cfg.result_ratio = 0.05;   // a flow-rate summary is small
  cfg.seed = 2026;
  const dta::SharedDataScenario city = workload::make_shared_scenario(cfg);

  std::cout << "city: " << city.universe.num_items() << " road segments, "
            << city.topology.num_devices() << " vehicles, "
            << city.tasks.size() << " district queries\n\n";

  // --- answer the queries three ways ------------------------------------
  Table table({"strategy", "energy (J)", "processing time (s)",
               "devices involved"});

  dta::DtaOptions opts;
  opts.strategy = dta::DtaStrategy::kWorkload;
  const dta::DtaResult balanced = dta::run_dta(city, opts);
  table.add_row({"DTA-Workload (balanced shares)",
                 Table::num(balanced.total_energy_j, 1),
                 Table::num(balanced.processing_time_s, 2),
                 std::to_string(balanced.involved_devices)});

  opts.strategy = dta::DtaStrategy::kNumber;
  const dta::DtaResult lean = dta::run_dta(city, opts);
  table.add_row({"DTA-Number (fewest devices)",
                 Table::num(lean.total_energy_j, 1),
                 Table::num(lean.processing_time_s, 2),
                 std::to_string(lean.involved_devices)});

  // Holistic strawman: ship each district's raw readings to one place.
  const std::vector<mec::Task> holistic_tasks = dta::to_holistic_tasks(city);
  const assign::HtaInstance holistic(city.topology, holistic_tasks);
  const auto plan = assign::LpHta().assign(holistic);
  const auto m = assign::evaluate(holistic, plan);
  table.add_row({"holistic LP-HTA (raw data moves)",
                 Table::num(m.total_energy_j, 1), "-",
                 std::to_string(city.topology.num_devices())});

  std::cout << table << '\n';
  std::cout << "divisible processing avoids shipping raw segment samples: "
            << Table::num(m.total_energy_j / balanced.total_energy_j, 1)
            << "x less energy than the holistic plan.\n"
            << "Pick DTA-Workload when query latency matters (balanced\n"
            << "shares -> short makespan); pick DTA-Number when most\n"
            << "vehicles should stay idle (battery).\n";

  const bool ok = balanced.total_energy_j < m.total_energy_j &&
                  lean.involved_devices <= balanced.involved_devices;
  return ok ? 0 : 1;
}
