// LP kernel microbenchmark — solver kernel paths on the Fig. 2(a)
// 200-task cell (50 devices, 5 stations, max input 3000 kB).
//
// Times three kernel comparisons:
//   - interior point (LP-HTA end to end): dense normal equations vs CSR
//     assembly + cached symbolic Cholesky (docs/lp-kernels.md),
//   - simplex pricing (LP-HTA end to end): dense column scans vs CSC
//     sparse pricing (bit-identical pivot sequence by construction, so
//     the timing is the only delta),
//   - simplex basis kernel: the historical explicit dense inverse
//     (BasisKernel::kDenseInverse, O(m²)/pivot) vs the sparse LU +
//     eta-file kernel (BasisKernel::kEtaLu, O(nnz)/pivot).
//
// The basis-kernel headline is measured on the cell's *monolithic* P2
// relaxation — the per-station cluster LPs of build_cluster_lp merged
// block-diagonally into one problem (the formulation the paper actually
// states; the per-station decomposition is a solver-side optimization).
// The decomposed cluster LPs are only ~50 rows each, small enough that a
// vectorized dense m² update keeps pace with sparse ops, so the kernel
// asymptotics only show at the undecomposed cell scale (m in the
// hundreds). End-to-end LP-HTA is still timed with both kernels below,
// and *identical assignments* across every kernel pair are asserted here,
// not just in the unit tests, so a kernel regression that changes results
// fails the bench before any timing is read.
//
// Emits BENCH_lp_kernels.json (override with MECSCHED_BENCH_OUT) in the
// unified mecsched.bench.v1 schema for the CI kernel-bench step, which
// gates the speedups against bench/baselines/lp_kernels.json via
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
#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp/sparse_cholesky.h"
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

// Best-of-N wall clock for one engine/kernel combination. The warmup run
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

LpHtaOptions with_mode(LpEngine engine, mecsched::lp::SparseMode mode) {
  LpHtaOptions options;
  options.engine = engine;
  options.sparse_mode = mode;
  return options;
}

LpHtaOptions with_basis(mecsched::lp::BasisKernel basis) {
  LpHtaOptions options;
  options.engine = LpEngine::kSimplex;
  options.basis = basis;
  return options;
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

TimedLp time_simplex(const mecsched::lp::Problem& problem,
                     mecsched::lp::BasisKernel basis) {
  mecsched::lp::SimplexOptions options;
  options.basis = basis;
  const mecsched::lp::SimplexSolver solver(options);
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
      "LP kernels", "sparse vs dense solver paths",
      "Fig. 2(a) cell: 200 tasks, max input 3000 kB, 50 devices, 5 stations");

  workload::ScenarioConfig cfg;
  cfg.num_devices = bench::kDevices;
  cfg.num_base_stations = bench::kStations;
  cfg.num_tasks = kTasks;
  cfg.max_input_kb = 3000.0;
  cfg.seed = 1200;  // matches fig2a's rep-1 cell at x=200
  const workload::Scenario scenario = workload::make_scenario(cfg);
  const HtaInstance instance(scenario.topology, scenario.tasks);

  const Timed ipm_dense = time_assign(
      instance, with_mode(LpEngine::kInteriorPoint, lp::SparseMode::kForceDense));
  const Timed ipm_sparse = time_assign(
      instance, with_mode(LpEngine::kInteriorPoint, lp::SparseMode::kForceSparse));
  const Timed smx_dense = time_assign(
      instance, with_mode(LpEngine::kSimplex, lp::SparseMode::kForceDense));
  const Timed smx_sparse = time_assign(
      instance, with_mode(LpEngine::kSimplex, lp::SparseMode::kForceSparse));
  // End-to-end basis-kernel arms: the decomposed per-station cluster LPs,
  // default (kAuto) pricing storage on both. These assert assignment
  // identity; the headline kernel timing is the monolithic LP below.
  const Timed smx_dense_kernel =
      time_assign(instance, with_basis(lp::BasisKernel::kDenseInverse));
  const Timed smx_lu_kernel =
      time_assign(instance, with_basis(lp::BasisKernel::kEtaLu));

  // Monolithic cell LP, one simplex solve per kernel.
  const lp::Problem cell_lp = build_cell_lp(instance, bench::kStations);
  const TimedLp cell_dense = time_simplex(cell_lp, lp::BasisKernel::kDenseInverse);
  const TimedLp cell_lu = time_simplex(cell_lp, lp::BasisKernel::kEtaLu);

  const double ipm_speedup = ipm_dense.seconds / ipm_sparse.seconds;
  const double smx_speedup = smx_dense.seconds / smx_sparse.seconds;
  const double basis_e2e_speedup =
      smx_dense_kernel.seconds / smx_lu_kernel.seconds;
  const double basis_speedup = cell_dense.seconds / cell_lu.seconds;
  const double pivots_per_second = cell_lu.pivots / cell_lu.seconds;
  const bool ipm_identical =
      ipm_dense.assignment.decisions == ipm_sparse.assignment.decisions;
  const bool smx_identical =
      smx_dense.assignment.decisions == smx_sparse.assignment.decisions;
  const bool basis_identical = smx_dense_kernel.assignment.decisions ==
                               smx_lu_kernel.assignment.decisions;
  const bool cell_objectives_agree =
      std::fabs(cell_dense.objective - cell_lu.objective) <=
      1e-6 * (1.0 + std::fabs(cell_dense.objective));

  std::cout << "engine                        dense (s)   sparse/LU (s)   speedup\n";
  std::cout.setf(std::ios::fixed);
  std::cout.precision(6);
  std::cout << "interior-point                " << ipm_dense.seconds << "    "
            << ipm_sparse.seconds << "    " << ipm_speedup << "x\n"
            << "simplex pricing               " << smx_dense.seconds << "    "
            << smx_sparse.seconds << "    " << smx_speedup << "x\n"
            << "basis kernel (cluster LPs)    " << smx_dense_kernel.seconds
            << "    " << smx_lu_kernel.seconds << "    " << basis_e2e_speedup
            << "x\n"
            << "basis kernel (cell LP)        " << cell_dense.seconds << "    "
            << cell_lu.seconds << "    " << basis_speedup << "x\n";
  std::cout << "cell LP: " << cell_lp.num_variables() << " vars, "
            << cell_lp.num_constraints() << " rows, objective "
            << cell_lu.objective << "\n";
  std::cout.precision(0);
  std::cout << "eta-LU cell pivot throughput: " << pivots_per_second
            << " pivots/s (" << cell_lu.pivots << " pivots/solve)\n";
  std::cout.precision(6);

  obs::Registry& reg = obs::Registry::global();
  std::cout << "symbolic cache: "
            << reg.counter("lp.sparse.pattern_cache_hits").value() << " hits, "
            << reg.counter("lp.sparse.pattern_cache_misses").value()
            << " misses\n";

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("tasks", static_cast<double>(kTasks));
  telemetry.set_value("timed_runs", static_cast<double>(kTimedRuns));
  telemetry.set_value("ipm_dense_seconds", ipm_dense.seconds);
  telemetry.set_value("ipm_sparse_seconds", ipm_sparse.seconds);
  telemetry.set_value("ipm_speedup", ipm_speedup);
  telemetry.set_value("simplex_dense_seconds", smx_dense.seconds);
  telemetry.set_value("simplex_sparse_seconds", smx_sparse.seconds);
  telemetry.set_value("simplex_speedup", smx_speedup);
  telemetry.set_value("simplex_dense_kernel_seconds", smx_dense_kernel.seconds);
  telemetry.set_value("simplex_lu_kernel_seconds", smx_lu_kernel.seconds);
  telemetry.set_value("basis_kernel_e2e_speedup", basis_e2e_speedup);
  telemetry.set_value("cell_dense_kernel_seconds", cell_dense.seconds);
  telemetry.set_value("cell_lu_kernel_seconds", cell_lu.seconds);
  telemetry.set_value("basis_kernel_speedup", basis_speedup);
  telemetry.set_value("lu_pivots_per_second", pivots_per_second);
  telemetry.set_flag("assignments_identical",
                     ipm_identical && smx_identical && basis_identical &&
                         cell_objectives_agree);

  bench::ShapeChecker check;
  check.expect(ipm_identical,
               "IPM sparse and dense kernels produce identical assignments");
  check.expect(smx_identical,
               "simplex sparse and dense pricing produce identical assignments");
  check.expect(basis_identical,
               "eta-LU and dense-inverse basis kernels produce identical assignments");
  check.expect(cell_objectives_agree,
               "both basis kernels reach the same cell-LP optimum");
  check.expect(ipm_speedup >= 3.0,
               "sparse IPM is at least 3x faster than dense on the 200-task cell");
  check.expect(smx_speedup >= 0.9,
               "sparse simplex pricing does not slow the solve down");
  check.expect(basis_e2e_speedup >= 0.9,
               "eta-LU does not slow the decomposed cluster solves down");
  check.expect(basis_speedup >= 2.0,
               "eta-LU basis kernel is at least 2x faster than the dense "
               "inverse on the cell LP");
  return check.exit_code();
}
