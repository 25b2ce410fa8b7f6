// Fig. 5(b) — energy cost vs result-size model: η(y) ∈ {0.4y, 0.2y, 0.1y,
// 0.05y, constant}. 100 tasks, max input 3000 kB. Series: LP-HTA
// (holistic), DTA-Workload, DTA-Number.
//
// The x column is the result ratio; x = 0 denotes the constant-size model
// (100 kB regardless of input).
//
// Paper's reported shape: the DTA variants' energy shrinks with the result
// size and stays far below LP-HTA; smaller results → bigger advantage.
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
  const mecsched::bench::ObsSession obs_session("fig5b_dta_energy_vs_result_size");
  using namespace mecsched;
  bench::print_header("Fig. 5(b)", "energy cost vs result size (DTA)",
                      "result = {0.4X, 0.2X, 0.1X, 0.05X, const 1 kB}; "
                      "100 tasks, max input 3000 kB (x=0 => constant)");

  metrics::SeriesCollector series(
      "result ratio", {"LP-HTA", "DTA-Workload", "DTA-Number"});

  const double ratios[] = {0.4, 0.2, 0.1, 0.05, 0.0};
  for (double ratio : ratios) {
    for (std::uint64_t rep = 1; rep <= bench::kRepetitions; ++rep) {
      workload::SharedDataConfig cfg;
      cfg.num_devices = bench::kDevices;
      cfg.num_base_stations = bench::kStations;
      cfg.num_tasks = 100;
      cfg.num_items = 600;
      cfg.max_input_kb = 3000.0;
      cfg.max_extra_owners = 5;
      if (ratio == 0.0) {
        // "Constant" in Fig. 5(b) is a scalar aggregate (a Sum/Count), far
        // below any proportional result.
        cfg.result_kind = mec::ResultSizeKind::kConstant;
        cfg.result_const_kb = 1.0;
      } else {
        cfg.result_ratio = ratio;
      }
      cfg.seed = rep * 1000 + static_cast<std::uint64_t>(ratio * 100);
      const auto scenario = workload::make_shared_scenario(cfg);

      dta::DtaOptions opts;
      opts.scheduler = dta::PartialScheduler::kLocalGreedy;
      opts.strategy = dta::DtaStrategy::kWorkload;
      series.add(ratio, "DTA-Workload",
                 dta::run_dta(scenario, opts).total_energy_j);
      opts.strategy = dta::DtaStrategy::kNumber;
      series.add(ratio, "DTA-Number",
                 dta::run_dta(scenario, opts).total_energy_j);

      const std::vector<mec::Task> tasks = dta::to_holistic_tasks(scenario);
      const assign::HtaInstance inst(scenario.topology, tasks);
      const auto a = assign::LpHta().assign(inst);
      series.add(ratio, "LP-HTA", assign::evaluate(inst, a).total_energy_j);
    }
  }

  std::cout << "total energy (J):\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig5b_dta_energy_vs_result_size");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(0.4, "DTA-Workload") < at(0.4, "LP-HTA"),
               "DTA-Workload below LP-HTA even at eta=0.4");
  check.expect(at(0.05, "DTA-Workload") < at(0.4, "DTA-Workload"),
               "DTA energy shrinks with the result size");
  check.expect(at(0.0, "DTA-Workload") < at(0.4, "DTA-Workload"),
               "constant (small) results are the cheapest for DTA");
  check.expect(at(0.05, "DTA-Number") < at(0.4, "DTA-Number"),
               "DTA-Number shrinks with result size too");
  return check.exit_code();
}
