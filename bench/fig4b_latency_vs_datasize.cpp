// Fig. 4(b) — average latency vs maximum input data size (1000 → 5000 kB),
// 100 tasks. Series: LP-HTA, HGOS, AllToC, AllOffload.
//
// Paper's reported shape: LP-HTA remains the smallest; its margin over
// HGOS narrows as data volume pushes tasks off the devices.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig4b_latency_vs_datasize");
  using namespace mecsched;
  bench::print_header("Fig. 4(b)", "average latency vs max input data size",
                      "input 1000..5000 kB, 100 tasks, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = cli::find_sweep_grid("fig4b");
  const metrics::SeriesCollector series =
      cli::run_sweep_grid(grid, bench::kRepetitions);

  std::cout << grid.metric_label << ":\n";
  bench::print_table(series, 3);
  bench::maybe_write_csv(series, "fig4b_latency_vs_datasize");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  // "the advantage of LP-HTA on latency is not so much obvious" at large
  // inputs (paper, Fig. 4(b) discussion) — allow a small tolerance.
  check.expect(at(5000, "LP-HTA") <= at(5000, "HGOS") * 1.05,
               "LP-HTA within 5% of HGOS at 5000 kB");
  check.expect(at(5000, "LP-HTA") < at(5000, "AllToC"),
               "LP-HTA below AllToC at 5000 kB");
  check.expect(at(5000, "LP-HTA") > at(1000, "LP-HTA"),
               "latency grows with data volume");
  const double margin_small =
      at(1000, "HGOS") - at(1000, "LP-HTA");
  const double margin_large =
      at(5000, "HGOS") - at(5000, "LP-HTA");
  check.expect(margin_large < margin_small * 3.0 + 1.0,
               "LP-HTA's margin over HGOS does not explode with size "
               "(advantage less pronounced, per the paper)");
  return check.exit_code();
}
