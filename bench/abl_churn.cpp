// Ablation — resilience under churn. Sweeps churn intensity (device MTBF,
// with correlated cell outages and link fading riding along) and compares
// the serve daemon's epoch loop (serve/stream.h: the stream and its fault
// schedule as one trace) against replaying a one-shot clairvoyant LP-HTA
// plan through the same fault schedule. The loop should convert a slice of
// the replay's losses into retries, DTA rescues and fallback-rung
// service.
#include <iostream>
#include <utility>
#include <vector>

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "exec/sweep_runner.h"
#include "metrics/series.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"
#include "workload/faults.h"

int main() {
  const mecsched::bench::ObsSession obs_session("abl_churn");
  using namespace mecsched;
  bench::print_header(
      "Ablation", "serve epoch loop vs one-shot replay under churn",
      "120 Poisson-timed tasks, 50 devices, 5 stations; x = device MTBF "
      "(lower = harsher), correlated cell outages + link fading enabled");

  metrics::SeriesCollector series(
      "mtbf-s", {"resilient-unsat-rate", "replay-unsat-rate", "retries",
                 "rescued-by-dta", "rung-lp-hta", "rung-fallback"});

  // One cell per (mtbf, repetition); cells fan out over the sweep pool
  // (MECSCHED_JOBS) and fold back into the collector in grid order.
  const std::vector<double> xs = {40.0, 20.0, 10.0, 5.0};
  struct CellResult {
    bool rungs_cover_epochs = true;
    std::vector<std::pair<const char*, double>> values;
  };
  const std::vector<CellResult> cells = exec::SweepRunner().run<CellResult>(
      xs.size() * bench::kRepetitions, [&](std::size_t i) {
      const double x = xs[i / bench::kRepetitions];
      const std::uint64_t rep = i % bench::kRepetitions + 1;
      workload::ArrivalConfig arrivals;
      arrivals.scenario.num_tasks = 120;
      arrivals.scenario.num_devices = bench::kDevices;
      arrivals.scenario.num_base_stations = bench::kStations;
      arrivals.scenario.seed = rep * 977 + static_cast<std::uint64_t>(x);
      const workload::TimedScenario s = workload::make_timed_scenario(arrivals);

      workload::FaultModelConfig fm;
      fm.horizon_s = 60.0;
      fm.device_mtbf_s = x;
      fm.device_mttr_s = 3.0;
      fm.station_outage_rate_per_s = 0.01;
      fm.station_outage_duration_s = 4.0;
      fm.correlated_device_prob = 0.5;
      fm.link_fade_rate_per_s = 0.05;
      fm.seed = arrivals.scenario.seed + 1;
      const sim::FaultSchedule faults =
          workload::make_fault_schedule(fm, s.topology);

      // Every external-data task doubles as a divisible one: a single item
      // held by its owner plus one replica, so the daemon can re-divide
      // when the owner dies.
      serve::SharedDataView shared;
      shared.ownership.resize(s.topology.num_devices());
      shared.task_items.resize(s.tasks.size());
      for (std::size_t t = 0; t < s.tasks.size(); ++t) {
        const mec::Task& task = s.tasks[t].task;
        if (task.external_bytes <= 0.0) continue;
        const std::size_t item = shared.item_bytes.size();
        shared.item_bytes.push_back(task.external_bytes);
        const std::size_t owner = task.external_owner;
        const std::size_t replica = (owner + 7) % s.topology.num_devices();
        shared.ownership[owner].push_back(item);
        if (replica != owner) shared.ownership[replica].push_back(item);
        shared.task_items[t].push_back(item);
      }

      serve::ServeOptions opts;
      opts.readmission.max_attempts = 4;
      opts.jobs = 1;  // the cells already run on the sweep pool
      const serve::StreamResult r =
          serve::run_stream(opts, s.topology, s.tasks, faults, &shared);
      CellResult cell;
      cell.rungs_cover_epochs = r.serve.rungs.total() <= r.serve.decide_epochs;

      // One-shot replay: clairvoyant LP-HTA plan, then the same faults.
      std::vector<mec::Task> tasks;
      sim::SimOptions replay_opts;
      replay_opts.faults = faults;
      for (const mec::TimedTask& tt : s.tasks) {
        tasks.push_back(tt.task);
        replay_opts.release_times.push_back(tt.release_s);
      }
      const assign::HtaInstance inst(s.topology, tasks);
      const assign::Assignment plan = assign::LpHta().assign(inst);
      const sim::SimResult replay = sim::simulate(inst, plan, replay_opts);
      std::size_t replay_unsat = 0;
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const sim::TaskTimeline& tl = replay.timelines[t];
        const bool missed =
            !tl.placed || tl.failed ||
            tl.latency_s() > tasks[t].deadline_s + 1e-9;
        if (missed) ++replay_unsat;
      }

      cell.values.emplace_back("resilient-unsat-rate", r.unsatisfied_rate());
      cell.values.emplace_back("replay-unsat-rate",
                               static_cast<double>(replay_unsat) /
                                   static_cast<double>(tasks.size()));
      cell.values.emplace_back("retries",
                               static_cast<double>(r.serve.retries));
      cell.values.emplace_back("rescued-by-dta",
                               static_cast<double>(r.serve.rescued));
      cell.values.emplace_back(
          "rung-lp-hta",
          static_cast<double>(r.serve.rungs.at(control::FallbackRung::kLpHta)));
      cell.values.emplace_back(
          "rung-fallback",
          static_cast<double>(
              r.serve.rungs.at(control::FallbackRung::kHgos) +
              r.serve.rungs.at(control::FallbackRung::kLocalFirst)));
      return cell;
      });

  bool rungs_cover_epochs = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double x = xs[i / bench::kRepetitions];
    rungs_cover_epochs = rungs_cover_epochs && cells[i].rungs_cover_epochs;
    for (const auto& [name, value] : cells[i].values) series.add(x, name, value);
  }

  bench::print_table(series, 3);
  bench::maybe_write_csv(series, "abl_churn");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };

  // Trajectory-gated telemetry: the harsh-churn endpoint the ablation
  // argues from (deterministic — fixed seeds and fault schedules).
  bench::BenchTelemetry& telemetry = obs_session.telemetry();
  telemetry.set_value("resilient_unsat_at_mtbf5", at(5, "resilient-unsat-rate"));
  telemetry.set_value("replay_unsat_at_mtbf5", at(5, "replay-unsat-rate"));
  telemetry.set_value("unsat_improvement_at_mtbf5",
                      at(5, "replay-unsat-rate") -
                          at(5, "resilient-unsat-rate"));
  telemetry.set_value("retries_at_mtbf5", at(5, "retries"));

  check.expect(rungs_cover_epochs,
               "the rung histogram never exceeds the epoch count");
  check.expect(at(5, "replay-unsat-rate") > 0.0,
               "a one-shot plan loses tasks under heavy churn");
  check.expect(
      at(5, "resilient-unsat-rate") <= at(5, "replay-unsat-rate") + 1e-9,
      "the epoch loop beats replaying the one-shot plan at MTBF = 5 s");
  check.expect(
      at(10, "resilient-unsat-rate") <= at(10, "replay-unsat-rate") + 1e-9,
      "the epoch loop beats replaying the one-shot plan at MTBF = 10 s");
  check.expect(at(5, "retries") > 0.0,
               "heavy churn forces re-admissions");
  return check.exit_code();
}
