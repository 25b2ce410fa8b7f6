// Fig. 3 — unsatisfied task rate vs number of tasks (100 → 450). Series:
// LP-HTA, HGOS, AllOffload (the paper omits AllToC here because its rate
// is uniformly terrible; we print it anyway as a reference column).
//
// Paper's reported shape: LP-HTA's rate is far below HGOS and AllOffload;
// HGOS's energy may rival LP-HTA (Fig. 2) but its deadline behaviour does
// not.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig3_unsatisfied_rate");
  using namespace mecsched;
  bench::print_header("Fig. 3", "unsatisfied task rate vs number of tasks",
                      "tasks 100..450, max input 3000 kB, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = cli::find_sweep_grid("fig3");
  const metrics::SeriesCollector series =
      cli::run_sweep_grid(grid, bench::kRepetitions);

  std::cout << grid.metric_label << ":\n";
  bench::print_table(series, 4);
  bench::maybe_write_csv(series, "fig3_unsatisfied_rate");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(450, "LP-HTA") < at(450, "HGOS"),
               "LP-HTA misses fewer deadlines than HGOS");
  check.expect(at(450, "LP-HTA") < at(450, "AllOffload"),
               "LP-HTA misses fewer deadlines than AllOffload");
  check.expect(at(450, "LP-HTA") < 0.15,
               "LP-HTA's unsatisfied rate stays small");
  check.expect(at(250, "HGOS") > 2.0 * at(250, "LP-HTA"),
               "HGOS's rate is a multiple of LP-HTA's");
  return check.exit_code();
}
