// Named scenario grids for the holistic-task figures, and the one function
// that runs them.
//
// Each grid is the single definition of one figure sweep of the paper's
// Sec. V (Figs. 2(a), 2(b), 3, 4(a), 4(b)): where the x-axis runs, how a
// cell's scenario is built, and which metric each cell reports. A tiny
// `smoke` grid is sized for tests and CI determinism checks.
// run_sweep_grid() runs a grid for both `mecsched sweep` and the bench/
// figure binaries, fanning (x, repetition) cells over exec::SweepRunner.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "assign/evaluator.h"
#include "exec/sweep_runner.h"
#include "metrics/series.h"
#include "workload/scenario.h"

namespace mecsched::cli {

struct SweepGrid {
  std::string name;         // CLI spelling: --grid <name>
  std::string description;  // one-liner for --list
  std::string x_label;      // CSV/table header of the x column
  std::vector<double> xs;
  // Scenario for the cell at sweep position `x`, repetition seed `seed`
  // (1-based).
  std::function<workload::ScenarioConfig(double x, std::uint64_t seed)>
      config_at;
  // The per-cell measurement stored under each algorithm's series.
  std::function<double(const assign::Metrics&)> metric;
  std::string metric_label;  // e.g. "total energy (J)"
};

// All built-in grids, in listing order.
const std::vector<SweepGrid>& sweep_grids();

// Throws ModelError when `name` is not a known grid.
const SweepGrid& find_sweep_grid(const std::string& name);

// Runs every algorithm the figures compare (LP-HTA, HGOS, AllToC,
// AllOffload, in series order) on `reps` scenarios per x of `grid`, and
// averages `grid.metric` per (x, algorithm). Cells are pure functions of
// (x, rep) and land in the collector in (x, rep, algorithm) order, so the
// result is identical at every job count.
metrics::SeriesCollector run_sweep_grid(const SweepGrid& grid,
                                        std::size_t reps,
                                        const exec::SweepOptions& options = {});

}  // namespace mecsched::cli
