#include "cli/sweep_grids.h"

#include <memory>

#include "assign/assigner.h"
#include "assign/baselines.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "exec/sweep_runner.h"

namespace mecsched::cli {
namespace {

std::vector<double> range(double lo, double hi, double step) {
  std::vector<double> xs;
  for (double x = lo; x <= hi; x += step) xs.push_back(x);
  return xs;
}

// The figure cells keep ScenarioConfig's defaults for the Sec. V.A scale
// (50 devices, 5 base stations).
workload::ScenarioConfig tasks_cell(double x, std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = static_cast<std::size_t>(x);
  cfg.max_input_kb = 3000.0;
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(x);
  return cfg;
}

workload::ScenarioConfig datasize_cell(double x, std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = 100;
  cfg.max_input_kb = x;
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(x);
  return cfg;
}

double energy(const assign::Metrics& m) { return m.total_energy_j; }
double latency(const assign::Metrics& m) { return m.mean_latency_s; }
double unsatisfied(const assign::Metrics& m) { return m.unsatisfied_rate(); }

std::vector<SweepGrid> make_grids() {
  std::vector<SweepGrid> grids;
  grids.push_back({"fig2a", "energy cost vs number of tasks (100..450)",
                   "tasks", range(100, 450, 50), tasks_cell, energy,
                   "total energy (J)"});
  grids.push_back({"fig2b", "energy cost vs max input size (1000..5000 kB)",
                   "max input (kB)", range(1000, 5000, 1000), datasize_cell,
                   energy, "total energy (J)"});
  grids.push_back({"fig3", "unsatisfied task rate vs number of tasks (100..450)",
                   "tasks", range(100, 450, 50), tasks_cell, unsatisfied,
                   "unsatisfied task rate (fraction of tasks)"});
  grids.push_back({"fig4a", "average latency vs number of tasks (100..450)",
                   "tasks", range(100, 450, 50), tasks_cell, latency,
                   "average latency (s)"});
  grids.push_back({"fig4b", "average latency vs max input size (1000..5000 kB)",
                   "max input (kB)", range(1000, 5000, 1000), datasize_cell,
                   latency, "average latency (s)"});
  // Deliberately tiny: exercises the full parallel path (pool, shards,
  // cache) in well under a second, for unit tests and the CI determinism
  // check.
  grids.push_back({"smoke", "tiny fast grid for tests and CI determinism",
                   "tasks", range(20, 40, 10),
                   [](double x, std::uint64_t seed) {
                     workload::ScenarioConfig cfg;
                     cfg.num_devices = 10;
                     cfg.num_base_stations = 2;
                     cfg.num_tasks = static_cast<std::size_t>(x);
                     cfg.max_input_kb = 1000.0;
                     cfg.seed = seed * 1000 + static_cast<std::uint64_t>(x);
                     return cfg;
                   },
                   energy, "total energy (J)"});
  return grids;
}

}  // namespace

const std::vector<SweepGrid>& sweep_grids() {
  // Function-local static: constructed once on first use, destroyed at
  // exit — no heap leak, no naked new.
  static const std::vector<SweepGrid> grids = make_grids();
  return grids;
}

const SweepGrid& find_sweep_grid(const std::string& name) {
  for (const SweepGrid& g : sweep_grids()) {
    if (g.name == name) return g;
  }
  throw ModelError("unknown grid: " + name + " (see sweep --list)");
}

metrics::SeriesCollector run_sweep_grid(const SweepGrid& grid,
                                        std::size_t reps) {
  std::vector<std::unique_ptr<assign::Assigner>> algorithms;
  algorithms.push_back(std::make_unique<assign::LpHta>());
  algorithms.push_back(std::make_unique<assign::Hgos>());
  algorithms.push_back(std::make_unique<assign::AllToCloud>());
  algorithms.push_back(std::make_unique<assign::AllOffload>());
  std::vector<std::string> names;
  names.reserve(algorithms.size());
  for (const auto& a : algorithms) names.push_back(a->name());

  // One cell per (x, repetition); each runs every algorithm on the cell's
  // scenario and reports one value per algorithm.
  const std::vector<std::vector<double>> results =
      exec::SweepRunner().run<std::vector<double>>(
          grid.xs.size() * reps, [&](std::size_t i) {
            const double x = grid.xs[i / reps];
            const std::uint64_t rep = i % reps + 1;
            const workload::Scenario scenario =
                workload::make_scenario(grid.config_at(x, rep));
            const assign::HtaInstance instance(scenario.topology,
                                               scenario.tasks);
            std::vector<double> cell;
            cell.reserve(algorithms.size());
            for (const auto& algorithm : algorithms) {
              cell.push_back(grid.metric(
                  assign::evaluate(instance, algorithm->assign(instance))));
            }
            return cell;
          });
  metrics::SeriesCollector series(grid.x_label, names);
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t a = 0; a < names.size(); ++a) {
      series.add(grid.xs[i / reps], names[a], results[i][a]);
    }
  }
  return series;
}

}  // namespace mecsched::cli
