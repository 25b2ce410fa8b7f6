// Observability overhead micro-bench — the cost of the per-solve
// instrumentation bundle while everything is *disabled* (the default).
//
// Every simplex solve pays, even with no trace/flight/metrics consumer
// attached:
//   - a relaxed-atomic FlightRecorder::enabled() check (taken branch: none),
//   - two counter adds (solves, pivots) through cached references,
//   - two histogram observes (solve seconds, pivots per solve) through
//     cached references.
// This binary times that exact bundle, times a real small LP-HTA solve as
// the unit of useful work it rides on, and gates the ratio at 2% — the
// budget docs/observability.md promises for disabled-mode observability.
//
// Emits BENCH_obs_overhead.json (mecsched.bench.v2); CI gates
// values.overhead_fraction via tools/bench/trajectory.py.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "workload/scenario.h"

namespace {

constexpr std::size_t kTasks = 40;
constexpr int kSolveRuns = 7;
constexpr int kBundleIters = 200000;

double now_diff_s(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const mecsched::bench::ObsSession obs_session("obs_overhead");
  using namespace mecsched;
  bench::print_header("obs overhead",
                      "disabled-mode instrumentation cost per solve",
                      std::to_string(kTasks) +
                          " tasks, 20 devices, 3 stations; bundle = flight "
                          "check + 2 counters + 2 histograms");

  // The unit of useful work: one LP-HTA solve on a small cell (median of
  // kSolveRuns after one warmup, so the symbolic caches are steady-state).
  workload::ScenarioConfig cfg;
  cfg.num_devices = 20;
  cfg.num_base_stations = 3;
  cfg.num_tasks = kTasks;
  cfg.seed = 7;
  const workload::Scenario scenario = workload::make_scenario(cfg);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::LpHta solver;
  (void)solver.assign(instance);  // warmup
  std::vector<double> solve_times;
  solve_times.reserve(kSolveRuns);
  for (int r = 0; r < kSolveRuns; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)solver.assign(instance);
    const auto t1 = std::chrono::steady_clock::now();
    solve_times.push_back(now_diff_s(t0, t1));
  }
  std::sort(solve_times.begin(), solve_times.end());
  const double solve_seconds = solve_times[solve_times.size() / 2];

  // The disabled-mode bundle, exactly as SimplexSolver pays it: references
  // resolved once (the solver's function-local statics), then the writes.
  // A private registry keeps the timed writes out of the global counters.
  obs::Registry reg;
  obs::Counter& solves = reg.counter("lp.simplex.solves");
  obs::Counter& pivots = reg.counter("lp.simplex.pivots");
  obs::Histogram& seconds_per_solve =
      reg.histogram("lp.simplex.solve.seconds");
  obs::Histogram& pivots_per_solve =
      reg.histogram("lp.simplex.pivots_per_solve");
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.disable();
  std::uint64_t sink = 0;
  const auto b0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kBundleIters; ++i) {
    if (flight.enabled()) ++sink;  // never taken; the check is the cost
    solves.add();
    pivots.add(12);
    seconds_per_solve.observe(1e-3);
    pivots_per_solve.observe(12.0);
  }
  const auto b1 = std::chrono::steady_clock::now();
  const double bundle_seconds = now_diff_s(b0, b1) / kBundleIters;
  const double overhead_fraction = bundle_seconds / solve_seconds;

  std::cout.setf(std::ios::fixed);
  std::cout.precision(9);
  std::cout << "solve (median):     " << solve_seconds << " s\n"
            << "bundle (per solve): " << bundle_seconds << " s\n";
  std::cout.precision(6);
  std::cout << "overhead fraction:  " << overhead_fraction
            << "  (budget 0.02)\n";
  if (sink != 0) std::cout << "sink: " << sink << '\n';  // defeat DCE

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("solve_seconds", solve_seconds);
  telemetry.set_value("bundle_seconds", bundle_seconds);
  telemetry.set_value("overhead_fraction", overhead_fraction);

  bench::ShapeChecker check;
  check.expect(overhead_fraction <= 0.02,
               "disabled-mode instrumentation costs at most 2% of a small "
               "LP-HTA solve");
  return check.exit_code();
}
