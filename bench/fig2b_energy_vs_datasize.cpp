// Fig. 2(b) — total energy cost vs maximum input data size (1000 → 5000
// kB), 100 tasks. Series: LP-HTA, HGOS, AllToC, AllOffload.
//
// Paper's reported shape: LP-HTA stays the smallest as data volume grows
// (it suits data-intensive tasks); ordering as in Fig. 2(a).
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig2b_energy_vs_datasize");
  using namespace mecsched;
  bench::print_header("Fig. 2(b)", "energy cost vs max input data size",
                      "input 1000..5000 kB, 100 tasks, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = cli::find_sweep_grid("fig2b");
  const metrics::SeriesCollector series =
      cli::run_sweep_grid(grid, bench::kRepetitions);

  std::cout << grid.metric_label << ":\n";
  bench::print_table(series, 1);
  bench::maybe_write_csv(series, "fig2b_energy_vs_datasize");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(5000, "AllToC") > at(5000, "AllOffload"),
               "AllToC costs more than AllOffload at 5000 kB");
  check.expect(at(5000, "LP-HTA") < at(5000, "AllOffload"),
               "LP-HTA remains below AllOffload at 5000 kB");
  check.expect(at(5000, "LP-HTA") <= at(5000, "HGOS") * 1.05,
               "LP-HTA at or below HGOS at 5000 kB");
  check.expect(at(5000, "LP-HTA") > at(1000, "LP-HTA"),
               "energy grows with data volume");
  return check.exit_code();
}
