// Fig. 4(a) — average latency vs number of tasks (100 → 450), max input
// 3000 kB. Series: LP-HTA, HGOS, AllToC, AllOffload.
//
// Paper's reported shape: AllToC's latency dwarfs everything (250 ms WAN
// per task plus slow pipes); LP-HTA is the lowest, below HGOS.
#include <iostream>

#include "bench/bench_common.h"
#include "cli/sweep_grids.h"

int main() {
  const mecsched::bench::ObsSession obs_session("fig4a_latency_vs_tasks");
  using namespace mecsched;
  bench::print_header("Fig. 4(a)", "average latency vs number of tasks",
                      "tasks 100..450, max input 3000 kB, 50 devices, "
                      "5 stations, 3 seeds/cell");

  const cli::SweepGrid& grid = cli::find_sweep_grid("fig4a");
  const metrics::SeriesCollector series =
      cli::run_sweep_grid(grid, bench::kRepetitions);

  std::cout << grid.metric_label << ":\n";
  bench::print_table(series, 3);
  bench::maybe_write_csv(series, "fig4a_latency_vs_tasks");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(450, "AllToC") > at(450, "LP-HTA"),
               "AllToC latency above LP-HTA");
  check.expect(at(450, "AllOffload") > at(450, "LP-HTA"),
               "AllOffload latency above LP-HTA");
  check.expect(at(450, "LP-HTA") <= at(450, "HGOS") + 1e-9,
               "LP-HTA latency at or below HGOS");
  return check.exit_code();
}
