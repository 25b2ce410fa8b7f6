// Fig. 5(a) — energy cost vs number of tasks (100 → 450) on data-shared
// divisible workloads. Series: LP-HTA (treating each task holistically),
// DTA-Workload, DTA-Number. Max input 3000 kB, result ratio η = 0.2.
//
// Paper's reported shape: both DTA variants cost far less than holistic
// LP-HTA, and the gap widens as tasks (and thus avoided raw transfers)
// grow.
#include <iostream>
#include <vector>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "dta/pipeline.h"
#include "metrics/series.h"
#include "workload/shared_data.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig5a_dta_energy_vs_tasks");
  using namespace mecsched;
  bench::print_header("Fig. 5(a)", "energy cost vs number of tasks (DTA)",
                      "tasks 100..450, max input 3000 kB, eta 0.2, "
                      "50 devices, 5 stations, 3 seeds/cell");

  metrics::SeriesCollector series(
      "tasks", {"LP-HTA", "DTA-Workload", "DTA-Number"});

  for (double x = 100; x <= 450; x += 50) {
    for (std::uint64_t rep = 1; rep <= bench::kRepetitions; ++rep) {
      workload::SharedDataConfig cfg;
      cfg.num_devices = bench::kDevices;
      cfg.num_base_stations = bench::kStations;
      cfg.num_tasks = static_cast<std::size_t>(x);
      cfg.num_items = 600;
      cfg.max_extra_owners = 5;
      cfg.max_input_kb = 3000.0;
      cfg.seed = rep * 1000 + static_cast<std::uint64_t>(x);
      const auto scenario = workload::make_shared_scenario(cfg);

      dta::DtaOptions opts;
      opts.scheduler = dta::PartialScheduler::kLocalGreedy;
      opts.strategy = dta::DtaStrategy::kWorkload;
      series.add(x, "DTA-Workload",
                 dta::run_dta(scenario, opts).total_energy_j);
      opts.strategy = dta::DtaStrategy::kNumber;
      series.add(x, "DTA-Number", dta::run_dta(scenario, opts).total_energy_j);

      const std::vector<mec::Task> tasks = dta::to_holistic_tasks(scenario);
      const assign::HtaInstance inst(scenario.topology, tasks);
      const auto a = assign::LpHta().assign(inst);
      series.add(x, "LP-HTA", assign::evaluate(inst, a).total_energy_j);
    }
  }

  std::cout << "total energy (J):\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig5a_dta_energy_vs_tasks");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };

  // Trajectory-gated telemetry: the curve's endpoint levels and the
  // holistic/DTA separation (deterministic — fixed seeds).
  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("dta_workload_energy_at_100", at(100, "DTA-Workload"));
  telemetry.set_value("dta_workload_energy_at_450", at(450, "DTA-Workload"));
  telemetry.set_value("dta_number_energy_at_100", at(100, "DTA-Number"));
  telemetry.set_value("dta_number_energy_at_450", at(450, "DTA-Number"));
  telemetry.set_value("lp_hta_energy_at_100", at(100, "LP-HTA"));
  telemetry.set_value("lp_hta_energy_at_450", at(450, "LP-HTA"));
  telemetry.set_value("energy_ratio_lp_dta_workload",
                      at(450, "LP-HTA") / at(450, "DTA-Workload"));
  check.expect(at(450, "DTA-Workload") < at(450, "LP-HTA"),
               "DTA-Workload below holistic LP-HTA");
  check.expect(at(450, "DTA-Number") < at(450, "LP-HTA"),
               "DTA-Number below holistic LP-HTA");
  const double gap_small = at(100, "LP-HTA") - at(100, "DTA-Workload");
  const double gap_large = at(450, "LP-HTA") - at(450, "DTA-Workload");
  check.expect(gap_large > gap_small,
               "the DTA saving widens as tasks increase");
  return check.exit_code();
}
