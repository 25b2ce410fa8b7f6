// Fig. 2(a) — total energy cost vs number of tasks (100 → 450), max input
// 3000 kB. Series: LP-HTA, HGOS, AllToC, AllOffload.
//
// Paper's reported shape: AllToC consumes the most, then AllOffload;
// LP-HTA is the lowest, slightly below HGOS, and grows slowly with the
// task count.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig2a_energy_vs_tasks");
  using namespace mecsched;
  bench::print_header("Fig. 2(a)", "energy cost vs number of tasks",
                      "tasks 100..450, max input 3000 kB, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = cli::find_sweep_grid("fig2a");
  const metrics::SeriesCollector series =
      cli::run_sweep_grid(grid, bench::kRepetitions);

  std::cout << grid.metric_label << ":\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig2a_energy_vs_tasks");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };

  // Trajectory-gated telemetry: the figure's endpoint levels and the
  // AllToC/LP-HTA separation (deterministic — fixed seeds).
  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("lp_hta_energy_at_100", at(100, "LP-HTA"));
  telemetry.set_value("lp_hta_energy_at_450", at(450, "LP-HTA"));
  telemetry.set_value("alltoc_energy_at_450", at(450, "AllToC"));
  telemetry.set_value("energy_ratio_alltoc_lp",
                      at(450, "AllToC") / at(450, "LP-HTA"));
  check.expect(at(450, "AllToC") > at(450, "AllOffload"),
               "AllToC costs more than AllOffload");
  check.expect(at(450, "AllOffload") > at(450, "LP-HTA"),
               "AllOffload costs more than LP-HTA");
  check.expect(at(450, "LP-HTA") <= at(450, "HGOS") * 1.05,
               "LP-HTA at or below HGOS");
  check.expect(at(450, "LP-HTA") > at(100, "LP-HTA"),
               "LP-HTA energy grows with task count");
  check.expect(at(450, "LP-HTA") - at(100, "LP-HTA") <
                   at(450, "AllToC") - at(100, "AllToC"),
               "LP-HTA's energy grows more slowly than AllToC's");
  check.expect(at(450, "LP-HTA") - at(100, "LP-HTA") <
                   at(450, "AllOffload") - at(100, "AllOffload"),
               "LP-HTA's energy grows more slowly than AllOffload's");
  return check.exit_code();
}
