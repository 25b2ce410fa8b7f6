// LP kernel microbenchmark — the one simplex path and the sparse
// interior-point oracle on the Fig. 2(a) 200-task cell (50 devices, 5
// stations, max input 3000 kB).
//
// Measures:
//   - LP-HTA end to end with each Step-1 engine (simplex, sparse IPM),
//     best of kTimedRuns after a warmup;
//   - one simplex solve of the cell's *monolithic* P2 relaxation — the
//     per-station cluster LPs of build_cluster_lp merged block-diagonally
//     into one problem (the formulation the paper states; the per-station
//     decomposition is a solver-side optimization). At m in the hundreds
//     it exercises the eta-file LU kernel far harder than the ~50-row
//     cluster LPs: its pivot count is deterministic and its pivots/s is
//     the kernel throughput headline;
//   - the sparse IPM on the same cell LP, whose objective must agree with
//     the simplex's (the independent oracle).
//
// Emits BENCH_lp_kernels.json (override with MECSCHED_BENCH_OUT) in the
// unified mecsched.bench.v2 schema for the CI kernel-bench step, which
// gates the pivot count, the objective agreement, the pivot throughput
// and the LP-HTA solve times against bench/baselines/lp_kernels.json via
// tools/bench/trajectory.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "assign/cluster_lp.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "lp/interior_point.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "obs/registry.h"
#include "workload/scenario.h"

namespace {

using mecsched::assign::Assignment;
using mecsched::assign::HtaInstance;
using mecsched::assign::LpEngine;
using mecsched::assign::LpHta;
using mecsched::assign::LpHtaOptions;

constexpr std::size_t kTasks = 200;
constexpr int kTimedRuns = 5;

struct Timed {
  Assignment assignment;
  double seconds = 0.0;    // best-of-kTimedRuns, one warmup discarded
};

// Best-of-N wall clock for one Step-1 engine. The warmup run
// also populates the process-wide symbolic-factor cache and grows the
// per-thread simplex workspace arena, so the numbers reflect the steady
// state a sweep actually sees (analysis/allocation done once, warm
// re-entries thereafter).
Timed time_assign(const HtaInstance& instance, const LpHtaOptions& options) {
  const LpHta solver(options);
  Timed out;
  out.assignment = solver.assign(instance);  // warmup, result kept
  out.seconds = 1e300;
  for (int r = 0; r < kTimedRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Assignment a = solver.assign(instance);
    const auto t1 = std::chrono::steady_clock::now();
    if (a.decisions != out.assignment.decisions) {
      std::cerr << "FATAL: assignment changed between repeated solves\n";
      std::exit(EXIT_FAILURE);
    }
    out.seconds =
        std::min(out.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  return out;
}

// The cell's monolithic P2 relaxation: every per-station cluster LP of
// build_cluster_lp merged block-diagonally (disjoint variables, disjoint
// rows) into one problem. Same optimum as the sum of the cluster solves.
mecsched::lp::Problem build_cell_lp(const HtaInstance& instance,
                                    std::size_t stations) {
  mecsched::lp::Problem mono;
  for (std::size_t b = 0; b < stations; ++b) {
    const auto cluster = mecsched::assign::build_cluster_lp(instance, b);
    const mecsched::lp::Problem& p = cluster.problem;
    std::vector<std::size_t> map(p.num_variables());
    for (std::size_t v = 0; v < p.num_variables(); ++v) {
      map[v] = mono.add_variable(p.cost(v), p.lower(v), p.upper(v));
    }
    for (std::size_t r = 0; r < p.num_constraints(); ++r) {
      const auto& con = p.constraint(r);
      std::vector<mecsched::lp::Term> terms;
      terms.reserve(con.terms.size());
      for (const auto& t : con.terms) terms.push_back({map[t.var], t.coeff});
      mono.add_constraint(terms, con.relation, con.rhs);
    }
  }
  return mono;
}

struct TimedLp {
  double seconds = 0.0;
  double pivots = 0.0;
  double objective = 0.0;
};

TimedLp time_simplex(const mecsched::lp::Problem& problem) {
  const mecsched::lp::SimplexSolver solver;
  mecsched::lp::Solution sol = solver.solve(problem);  // warmup
  TimedLp out;
  out.seconds = 1e300;
  for (int r = 0; r < kTimedRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sol = solver.solve(problem);
    const auto t1 = std::chrono::steady_clock::now();
    if (!sol.optimal()) {
      std::cerr << "FATAL: monolithic cell LP did not solve to optimality\n";
      std::exit(EXIT_FAILURE);
    }
    out.seconds =
        std::min(out.seconds, std::chrono::duration<double>(t1 - t0).count());
  }
  out.pivots = static_cast<double>(sol.iterations);
  out.objective = sol.objective;
  return out;
}

}  // namespace

int main() {
  const mecsched::bench::ObsSession obs_session("lp_kernels");
  using namespace mecsched;
  bench::print_header(
      "LP kernels", "simplex and sparse interior point",
      "Fig. 2(a) cell: 200 tasks, max input 3000 kB, 50 devices, 5 stations");

  workload::ScenarioConfig cfg;
  cfg.num_devices = bench::kDevices;
  cfg.num_base_stations = bench::kStations;
  cfg.num_tasks = kTasks;
  cfg.max_input_kb = 3000.0;
  cfg.seed = 1200;  // matches fig2a's rep-1 cell at x=200
  const workload::Scenario scenario = workload::make_scenario(cfg);
  const HtaInstance instance(scenario.topology, scenario.tasks);

  const Timed smx = time_assign(instance, LpHtaOptions{LpEngine::kSimplex});
  const Timed ipm =
      time_assign(instance, LpHtaOptions{LpEngine::kInteriorPoint});
  // Both engines relax the same cluster LPs, so E_LP must agree even where
  // they round different optimal vertices.
  assign::LpHtaReport smx_report, ipm_report;
  LpHta(LpHtaOptions{LpEngine::kSimplex}).assign_with_report(instance,
                                                             smx_report);
  LpHta(LpHtaOptions{LpEngine::kInteriorPoint})
      .assign_with_report(instance, ipm_report);
  const bool lp_hta_objectives_agree =
      std::fabs(smx_report.lp_objective - ipm_report.lp_objective) <=
      1e-5 * (1.0 + std::fabs(smx_report.lp_objective));

  // Monolithic cell LP: the simplex timing and its sparse-IPM oracle.
  const lp::Problem cell_lp = build_cell_lp(instance, bench::kStations);
  const TimedLp cell = time_simplex(cell_lp);
  const lp::Solution cell_ipm = lp::InteriorPointSolver().solve(cell_lp);

  const double pivots_per_second = cell.pivots / cell.seconds;
  const double cell_rel_gap = std::fabs(cell.objective - cell_ipm.objective) /
                              (1.0 + std::fabs(cell.objective));
  const bool cell_objectives_agree = cell_ipm.optimal() && cell_rel_gap <= 1e-6;

  std::cout.setf(std::ios::fixed);
  std::cout.precision(6);
  std::cout << "LP-HTA (simplex)              " << smx.seconds << " s\n"
            << "LP-HTA (sparse IPM)           " << ipm.seconds << " s\n"
            << "cell LP simplex solve         " << cell.seconds << " s\n";
  std::cout << "cell LP: " << cell_lp.num_variables() << " vars, "
            << cell_lp.num_constraints() << " rows, objective "
            << cell.objective << " (IPM " << cell_ipm.objective
            << ", relative gap " << cell_rel_gap << ")\n";
  std::cout.precision(0);
  std::cout << "eta-LU cell pivot throughput: " << pivots_per_second
            << " pivots/s (" << cell.pivots << " pivots/solve)\n";
  std::cout.precision(6);

  obs::Registry& reg = obs::Registry::global();
  std::cout << "symbolic cache: "
            << reg.counter("lp.sparse.pattern_cache_hits").value() << " hits, "
            << reg.counter("lp.sparse.pattern_cache_misses").value()
            << " misses\n";

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("tasks", static_cast<double>(kTasks));
  telemetry.set_value("timed_runs", static_cast<double>(kTimedRuns));
  telemetry.set_value("simplex_lp_hta_seconds", smx.seconds);
  telemetry.set_value("ipm_lp_hta_seconds", ipm.seconds);
  telemetry.set_value("cell_simplex_seconds", cell.seconds);
  telemetry.set_value("cell_pivots", cell.pivots);
  telemetry.set_value("lu_pivots_per_second", pivots_per_second);
  telemetry.set_value("cell_simplex_objective", cell.objective);
  telemetry.set_value("cell_ipm_objective", cell_ipm.objective);
  telemetry.set_value("cell_objective_rel_gap", cell_rel_gap);
  telemetry.set_flag("cell_objectives_agree", cell_objectives_agree);

  bench::ShapeChecker check;
  check.expect(cell_objectives_agree,
               "simplex and sparse IPM reach the same cell-LP optimum");
  check.expect(lp_hta_objectives_agree,
               "LP-HTA's E_LP is the same with either Step-1 engine");
  check.expect(cell.pivots > 0.0, "the cell LP takes simplex pivots");
  return check.exit_code();
}
