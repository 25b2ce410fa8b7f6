// Ablation (google-benchmark) — LP engine micro-benchmarks: the two-phase
// bounded simplex vs the Mehrotra interior-point solver on HTA cluster
// relaxations of growing size, plus the end-to-end LP-HTA assignment and
// the baselines for context.
#include <benchmark/benchmark.h>

#include "assign/baselines.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "lp/interior_point.h"
#include "lp/simplex.h"
#include "workload/scenario.h"

namespace {

using namespace mecsched;

workload::Scenario scenario_for(std::size_t tasks) {
  workload::ScenarioConfig cfg;
  cfg.num_devices = 50;
  cfg.num_base_stations = 5;
  cfg.num_tasks = tasks;
  cfg.seed = 12345;
  return workload::make_scenario(cfg);
}

// One HTA-shaped LP: the relaxation of `tasks` tasks on one cluster.
lp::Problem hta_relaxation(std::size_t tasks) {
  const auto s = scenario_for(tasks * 5);  // ~tasks per cluster
  const assign::HtaInstance inst(s.topology, s.tasks);
  lp::Problem p;
  const auto& cluster = inst.cluster_tasks(0);
  std::vector<lp::Term> station_row;
  for (std::size_t idx = 0; idx < cluster.size(); ++idx) {
    const std::size_t t = cluster[idx];
    for (mec::Placement pl : mec::kAllPlacements) {
      const double latency = inst.latency(t, pl);
      const double ub =
          latency <= 0.0
              ? 1.0
              : std::min(1.0, inst.task(t).deadline_s / latency);
      p.add_variable(inst.energy(t, pl), 0.0, ub);
    }
    p.add_constraint({{idx * 3 + 0, 1.0}, {idx * 3 + 1, 1.0},
                      {idx * 3 + 2, 1.0}},
                     lp::Relation::kEqual, 1.0);
    station_row.push_back({idx * 3 + 1, inst.task(t).resource});
  }
  p.add_constraint(station_row, lp::Relation::kLessEqual,
                   inst.topology().base_station(0).max_resource);
  return p;
}

void BM_SimplexOnHtaRelaxation(benchmark::State& state) {
  const lp::Problem p = hta_relaxation(static_cast<std::size_t>(state.range(0)));
  const lp::SimplexSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetLabel(std::to_string(p.num_variables()) + " vars");
}
BENCHMARK(BM_SimplexOnHtaRelaxation)->Arg(10)->Arg(30)->Arg(60)->Arg(90);

void BM_InteriorPointOnHtaRelaxation(benchmark::State& state) {
  const lp::Problem p = hta_relaxation(static_cast<std::size_t>(state.range(0)));
  const lp::InteriorPointSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(p));
  }
  state.SetLabel(std::to_string(p.num_variables()) + " vars");
}
BENCHMARK(BM_InteriorPointOnHtaRelaxation)->Arg(10)->Arg(30)->Arg(60)->Arg(90);

void BM_LpHtaEndToEnd(benchmark::State& state) {
  const auto s = scenario_for(static_cast<std::size_t>(state.range(0)));
  const assign::HtaInstance inst(s.topology, s.tasks);
  const assign::LpHta algorithm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm.assign(inst));
  }
}
BENCHMARK(BM_LpHtaEndToEnd)->Arg(100)->Arg(250)->Arg(450);

void BM_HgosEndToEnd(benchmark::State& state) {
  const auto s = scenario_for(static_cast<std::size_t>(state.range(0)));
  const assign::HtaInstance inst(s.topology, s.tasks);
  const assign::Hgos algorithm;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm.assign(inst));
  }
}
BENCHMARK(BM_HgosEndToEnd)->Arg(100)->Arg(450);

void BM_InstanceConstruction(benchmark::State& state) {
  const auto s = scenario_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::HtaInstance(s.topology, s.tasks));
  }
}
BENCHMARK(BM_InstanceConstruction)->Arg(100)->Arg(450);

}  // namespace

BENCHMARK_MAIN();
