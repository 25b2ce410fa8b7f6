// Steady-state throughput of the `mecsched serve` daemon at city scale:
// 100k devices across 250 cells, ~12k task arrivals per 0.5 s epoch with
// live churn, each epoch solved as one problem. Headlines are
// decisions/sec and the p50/p99s of the serve.* histograms
// (admission-to-decision latency, per-epoch solve time);
// bench/baselines/serve_steady_state.json gates them in CI via
// tools/bench/trajectory.py.
//
// The run is deterministic at any worker count (same contract the
// daemon's CI determinism diff checks), so the only machine-dependent
// numbers are the wall-clock-derived ones, which the baseline floors
// conservatively.
#include <chrono>
#include <cmath>
#include <cstddef>
#include <iostream>

#include "bench_common.h"
#include "obs/registry.h"
#include "serve/daemon.h"
#include "workload/serve_trace.h"

namespace {

using namespace mecsched;

constexpr std::size_t kCityDevices = 100000;
constexpr std::size_t kCityStations = 250;
constexpr std::size_t kEpochs = 4;
constexpr double kEpochSeconds = 0.5;
constexpr double kArrivalRatePerS = 24000.0;  // ~12k tasks per epoch

double seconds_between(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const bench::ObsSession obs_session("serve_steady_state");
  bench::print_header(
      "serve_steady_state", "online daemon throughput at city scale",
      "100k devices, 250 cells, 24k arrivals/s over 4x0.5s epochs, "
      "live join/leave/migrate churn");

  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = kCityDevices;
  cfg.scenario.num_base_stations = kCityStations;
  cfg.scenario.seed = 1;
  cfg.epochs = kEpochs;
  cfg.epoch_s = kEpochSeconds;
  cfg.arrival_rate_per_s = kArrivalRatePerS;
  cfg.join_rate_per_s = 10.0;
  cfg.leave_rate_per_s = 10.0;
  cfg.migrate_rate_per_s = 40.0;

  const auto gen0 = std::chrono::steady_clock::now();
  const workload::ServeWorkload w = workload::make_serve_workload(cfg);
  const double generate_s =
      seconds_between(gen0, std::chrono::steady_clock::now());

  serve::ServeOptions opts;
  opts.batching.window_s = kEpochSeconds;
  opts.jobs = bench::sweep_jobs();

  const auto run0 = std::chrono::steady_clock::now();
  const serve::ServeResult r = serve::ServeDaemon(opts).run(w.universe, w.trace);
  const double run_s = seconds_between(run0, std::chrono::steady_clock::now());

  const double tasks_per_epoch =
      static_cast<double>(r.arrivals) / static_cast<double>(kEpochs);
  const double decisions_per_sec =
      run_s > 0.0 ? static_cast<double>(r.decisions) / run_s : 0.0;
  const obs::Histogram& admit =
      obs::Registry::global().histogram("serve.admit_to_decision_ms");
  const obs::Histogram& solve =
      obs::Registry::global().histogram("serve.epoch.solve_ms");
  const double admit_p50 = admit.approx_percentile(0.50);
  const double admit_p99 = admit.approx_percentile(0.99);
  const double solve_p50 = solve.approx_percentile(0.50);
  const double solve_p99 = solve.approx_percentile(0.99);

  std::cout << "devices:            " << w.universe.num_devices() << '\n'
            << "trace events:       " << r.events << '\n'
            << "tasks/epoch:        " << tasks_per_epoch << '\n'
            << "decisions:          " << r.decisions << '\n'
            << "generate wall:      " << generate_s << " s\n"
            << "serve wall:         " << run_s << " s\n"
            << "decisions/sec:      " << decisions_per_sec << '\n'
            << "admit->decision ms: p50 " << admit_p50 << "  p99 " << admit_p99
            << " (virtual clock)\n"
            << "epoch solve ms:     p50 " << solve_p50 << "  p99 " << solve_p99
            << '\n';

  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("devices",
                      static_cast<double>(w.universe.num_devices()));
  telemetry.set_value("stations",
                      static_cast<double>(w.universe.num_base_stations()));
  telemetry.set_value("tasks_per_epoch", tasks_per_epoch);
  telemetry.set_value("arrivals", static_cast<double>(r.arrivals));
  telemetry.set_value("decisions", static_cast<double>(r.decisions));
  telemetry.set_value("completed", static_cast<double>(r.completed));
  telemetry.set_value("decisions_per_sec", decisions_per_sec);
  telemetry.set_value("serve_wall_s", run_s);
  telemetry.set_value("generate_wall_s", generate_s);
  telemetry.set_value("admit_to_decision_p50_ms", admit_p50);
  telemetry.set_value("admit_to_decision_p99_ms", admit_p99);
  telemetry.set_value("epoch_solve_p50_ms", solve_p50);
  telemetry.set_value("epoch_solve_p99_ms", solve_p99);
  const bool conserved =
      r.arrivals == r.admitted + r.rejected &&
      r.admitted ==
          r.completed + r.expired + r.lost_issuer + r.exhausted + r.abandoned;
  telemetry.set_flag("conserved", conserved);
  telemetry.set_flag("ran_to_completion", !r.stopped_early);

  bench::ShapeChecker check;
  check.expect(w.universe.num_devices() >= kCityDevices,
               "universe holds at least 100k devices");
  check.expect(tasks_per_epoch >= 10000.0,
               "daemon ingests at least 10k tasks per epoch");
  check.expect(r.decisions > 0 && decisions_per_sec > 0.0,
               "the epoch loop places tasks at a positive rate");
  check.expect(conserved && !r.stopped_early,
               "every admitted task reaches exactly one terminal state");
  check.expect(admit.summary().count() > 0 && std::isfinite(admit_p99),
               "admission-to-decision p99 observed via serve.* histograms");
  check.expect(solve.summary().count() > 0 && std::isfinite(solve_p99),
               "epoch solve-time p99 observed via serve.* histograms");
  return check.exit_code();
}
