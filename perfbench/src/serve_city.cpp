// serve_city: the online daemon at city scale. 100k devices in 250 cells,
// 24k task arrivals/s batched into 0.5 s epochs over a 12-epoch horizon,
// join/leave/migrate churn at 10/10/40 per s, 16 halo shards solved by one
// pool worker. A pass is one ServeDaemon::run over the whole trace with a
// DecisionLog attached: the log is the daemon's real output, and every
// pass must write the same one.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "harness.h"
#include "obs/registry.h"
#include "serve/daemon.h"
#include "workload/serve_trace.h"

namespace perfbench {
namespace {

using namespace mecsched;
using serve::DecisionKind;

constexpr std::size_t kEpochs = 12;
constexpr double kEpochSeconds = 0.5;
constexpr int kSetupReps = 5;

workload::ServeWorkload generate(std::uint64_t seed) {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 100000;
  cfg.scenario.num_base_stations = 250;
  cfg.scenario.seed = seed;
  cfg.epochs = kEpochs;
  cfg.epoch_s = kEpochSeconds;
  cfg.arrival_rate_per_s = 24000.0;
  cfg.join_rate_per_s = 10.0;
  cfg.leave_rate_per_s = 10.0;
  cfg.migrate_rate_per_s = 40.0;
  return workload::make_serve_workload(cfg);
}

serve::ServeDaemon make_daemon() {
  serve::ServeOptions opts;
  opts.batching.window_s = kEpochSeconds;
  opts.sharding.num_shards = 16;
  opts.jobs = 1;
  return serve::ServeDaemon(opts);
}

// The conservation identity, and exactly one terminal disposition per
// task: a task's records are decides and retries followed by one terminal
// record (a task that ran to completion ends on its decide), and the
// tasks ending on each kind match the daemon's own tallies.
void check_run(Report& report, const serve::ServeResult& r,
               const serve::DecisionLog& log) {
  report.expect(!r.stopped_early, "serve_city: the run reached the trace end");
  report.expect(r.arrivals == r.admitted + r.rejected,
                "serve_city: arrivals = admitted + rejected");
  report.expect(r.admitted == r.completed + r.expired + r.lost_issuer +
                                  r.exhausted + r.abandoned,
                "serve_city: admitted = completed + expired + lost + "
                "exhausted + abandoned");

  std::unordered_map<std::uint64_t, DecisionKind> last;
  last.reserve(r.arrivals);
  bool ordered = true;
  std::size_t decides = 0;
  for (const serve::DecisionRecord& rec : log.records()) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(rec.task.user) << 32) | rec.task.index;
    const auto [it, fresh] = last.try_emplace(key, rec.kind);
    if (!fresh) {
      ordered = ordered && (it->second == DecisionKind::kDecide ||
                            it->second == DecisionKind::kRetry);
      it->second = rec.kind;
    }
    if (rec.kind == DecisionKind::kDecide) ++decides;
  }
  std::map<DecisionKind, std::size_t> ending;
  for (const auto& [task, kind] : last) ++ending[kind];
  report.expect(ordered,
                "serve_city: no record follows a task's terminal disposition");
  report.expect(last.size() == r.arrivals,
                "serve_city: every arrival has a decision record");
  report.expect(ending[DecisionKind::kRetry] == 0,
                "serve_city: no task ends on a retry");
  report.expect(ending[DecisionKind::kDecide] == r.completed &&
                    ending[DecisionKind::kExpire] == r.expired &&
                    ending[DecisionKind::kLostIssuer] == r.lost_issuer &&
                    ending[DecisionKind::kExhausted] == r.exhausted &&
                    ending[DecisionKind::kAbandoned] == r.abandoned &&
                    ending[DecisionKind::kReject] == r.rejected,
                "serve_city: one terminal record per task, matching the "
                "daemon's tallies");
  report.expect(decides == r.decisions,
                "serve_city: one decide record per placement");
}

// Schedule quality from the decision log. The admission-to-decision wait
// is exact on the virtual clock; the device shares count, per epoch, the
// tasks each device was given to run locally.
void add_quality(EndToEnd& e, const serve::ServeResult& r,
                 const serve::DecisionLog& log) {
  std::vector<double> waits_ms;
  std::map<std::size_t, std::unordered_map<std::size_t, std::size_t>> local;
  for (const serve::DecisionRecord& rec : log.records()) {
    if (rec.kind != DecisionKind::kDecide) continue;
    waits_ms.push_back(rec.latency_s * 1e3);
    if (rec.decision == assign::Decision::kLocal) {
      ++local[rec.epoch][rec.task.user];
    }
  }
  double involved = 0.0;
  double max_share = 0.0;
  for (const auto& [epoch, per_device] : local) {
    involved += static_cast<double>(per_device.size());
    std::size_t most = 0;
    for (const auto& [device, n] : per_device) most = std::max(most, n);
    max_share += static_cast<double>(most);
  }
  const auto epochs = static_cast<double>(local.size());
  e.virtual_admit_to_decision_ms_p99 = percentile(std::move(waits_ms), 0.99);
  e.involved_devices = epochs > 0.0 ? involved / epochs : 0.0;
  e.max_share_items = epochs > 0.0 ? max_share / epochs : 0.0;
  e.placed_share =
      static_cast<double>(r.completed) / static_cast<double>(r.arrivals);
  e.energy_j_per_task = r.total_energy_j / static_cast<double>(r.decisions);
}

Report run_timed(const Options& o) {
  Report report;
  EndToEnd e;
  std::optional<workload::ServeWorkload> w;
  e.setup_s = median_setup_s(kSetupReps, [&] { w.emplace(generate(o.seed)); });
  const serve::ServeDaemon daemon = make_daemon();
  {
    serve::DecisionLog warmup;
    daemon.run(w->universe, w->trace, &warmup);
  }

  CallClock clock;
  std::uint64_t digest = 0;
  const Clock::time_point t0 = Clock::now();
  while (report.attempted == 0 || seconds_since(t0) < o.seconds) {
    serve::DecisionLog log;
    const std::size_t first_call = clock.calls();
    ++report.attempted;
    const serve::ServeResult r =
        clock.time([&] { return daemon.run(w->universe, w->trace, &log); });
    e.add_pass(clock, first_call);
    check_run(report, r, log);
    if (report.attempted == 1) {
      digest = log.digest();
      e.offered.push_back(r.arrivals);
      e.placed.push_back(r.decisions);
      add_quality(e, r, log);
    } else {
      report.expect(log.digest() == digest,
                    "serve_city: every pass writes the same decision log");
    }
  }
  add_end_to_end(report, e);
  return report;
}

Report run_traced(const Options& o) {
  Report report;
  std::optional<workload::ServeWorkload> w;
  w.emplace(generate(o.seed));
  const serve::ServeDaemon daemon = make_daemon();
  const auto pass = [&] {
    serve::DecisionLog log;
    CallClock clock;
    ++report.attempted;
    const serve::ServeResult r = clock.time([&] {
      const obs::ScopedTimer span("bench.serve.run", "bench");
      return daemon.run(w->universe, w->trace, &log);
    });
    check_run(report, r, log);
    return clock.total_wall_s();
  };

  BenchSide side;
  start_traced_run(side, 2, pass);
  {
    const obs::ScopedTimer span("bench.workload.generate", "bench");
    w.emplace(generate(o.seed));
  }
  side.traced_wall_s.push_back(pass());
  obs::Tracer::global().disable();

  report.counters = layer_counters();
  add_layer_metrics(report, obs::Tracer::global().snapshot(), report.counters,
                    side);

  // The epochs' own work plus the solves they wait on is the whole run.
  const double run_ms = report.metrics["serve.run_s"].first * 1e3;
  const double covered_ms = report.metrics["serve.epoch_self_ms"].first +
                            report.metrics["lp_hta.assign_ms"].first;
  report.expect(std::abs(covered_ms - run_ms) <= 0.05 * run_ms,
                "serve_city: serve.epoch_self_ms + lp_hta.assign covers "
                "serve.run within 5%");
  return report;
}

}  // namespace

Report run_serve_city(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
