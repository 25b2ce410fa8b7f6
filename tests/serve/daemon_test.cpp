// End-to-end daemon tests: replay determinism across worker counts, churn
// reconciliation, admission accounting, and task conservation.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "mec/parameters.h"
#include "workload/serve_trace.h"

namespace mecsched::serve {
namespace {

mec::Topology make_universe(std::size_t num_devices,
                            std::size_t num_stations) {
  std::vector<mec::Device> devices(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    devices[i].id = i;
    devices[i].base_station = i % num_stations;
    devices[i].cpu_hz = 1.5e9;
    devices[i].radio = mec::kWiFi;
    devices[i].max_resource = 8.0;
  }
  std::vector<mec::BaseStation> stations(num_stations);
  for (std::size_t b = 0; b < num_stations; ++b) {
    stations[b].id = b;
    stations[b].cpu_hz = mec::SystemParameters{}.base_station_hz;
    stations[b].max_resource = 40.0;
  }
  return mec::Topology(std::move(devices), std::move(stations),
                       mec::SystemParameters{});
}

// A task heavy enough to still be running several epochs after placement.
mec::Task slow_task(std::size_t user, std::size_t owner,
                    double external_bytes) {
  mec::Task t;
  t.id = {user, 0};
  t.local_bytes = 5e6;
  t.external_bytes = external_bytes;
  t.external_owner = owner;
  t.resource = 1.0;
  t.deadline_s = 100.0;
  return t;
}

workload::ServeWorkload churny_workload() {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 30;
  cfg.scenario.num_base_stations = 4;
  cfg.scenario.seed = 11;
  cfg.epochs = 5;
  cfg.epoch_s = 0.5;
  cfg.arrival_rate_per_s = 25.0;
  cfg.join_rate_per_s = 2.0;
  cfg.leave_rate_per_s = 3.0;
  cfg.migrate_rate_per_s = 3.0;
  return workload::make_serve_workload(cfg);
}

TEST(ServeDaemonTest, DecisionLogIsByteIdenticalAcrossWorkerCounts) {
  const workload::ServeWorkload w = churny_workload();
  ServeOptions opts;
  opts.sharding.num_shards = 3;

  opts.jobs = 1;
  DecisionLog log1;
  const ServeResult r1 = ServeDaemon(opts).run(w.universe, w.trace, &log1);

  opts.jobs = 4;
  DecisionLog log4;
  const ServeResult r4 = ServeDaemon(opts).run(w.universe, w.trace, &log4);

  EXPECT_EQ(log1.digest(), log4.digest());
  std::ostringstream csv1, csv4;
  log1.write_csv(csv1);
  log4.write_csv(csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(r1.decisions, r4.decisions);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_DOUBLE_EQ(r1.total_energy_j, r4.total_energy_j);
  EXPECT_GT(r1.decisions, 0u);
}

// A pinned decision log. The worker-count comparison above cannot catch a
// change that moves the log the same way at every --jobs; this can. The
// run mixes churn (lost and orphaned work), cross-shard owners (halo
// entries) and devices that never issue a task.
TEST(ServeDaemonTest, DecisionLogDigestIsPinned) {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 120;
  cfg.scenario.num_base_stations = 8;
  cfg.scenario.seed = 23;
  cfg.epochs = 8;
  cfg.epoch_s = 0.5;
  cfg.arrival_rate_per_s = 40.0;
  cfg.join_rate_per_s = 3.0;
  cfg.leave_rate_per_s = 4.0;
  cfg.migrate_rate_per_s = 6.0;
  const workload::ServeWorkload w = workload::make_serve_workload(cfg);
  ServeOptions opts;
  opts.sharding.num_shards = 3;

  // The trace exercises what the digest is meant to guard.
  const Sharder sharder(w.universe, opts.sharding);
  const auto shard_of_device = [&](std::size_t g) {
    return sharder.shard_of_station(w.universe.device(g).base_station);
  };
  std::vector<char> issues(w.universe.num_devices(), 0);
  std::size_t cross_shard = 0;
  for (const Event& e : w.trace.events()) {
    if (e.kind != EventKind::kTaskArrival) continue;
    issues[e.task.id.user] = 1;
    if (e.task.external_bytes > 0.0 &&
        shard_of_device(e.task.external_owner) !=
            shard_of_device(e.task.id.user)) {
      ++cross_shard;
    }
  }
  EXPECT_GT(cross_shard, 0u);
  EXPECT_LT(std::count(issues.begin(), issues.end(), 1),
            static_cast<std::ptrdiff_t>(issues.size()));

  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(w.universe, w.trace, &log);
  EXPECT_GT(r.decisions, 0u);
  EXPECT_GT(r.orphaned + r.lost_issuer, 0u);
  EXPECT_EQ(log.digest(), 0x258de30fbc0db8b0ull);
}

TEST(ServeDaemonTest, DarkCellTasksRunLocallyOrWaitForTheCell) {
  const mec::Topology universe = make_universe(4, 2);
  // Device 0's cell is dark from t = 0 to t = 1.2. A light task fits on
  // the device and runs there at once; a heavy one misses its deadline
  // locally, so it waits for the cell and then goes through the solver.
  mec::Task light = slow_task(0, 0, 0.0);
  light.local_bytes = 1e3;
  light.id.index = 1;
  // 11 s of device CPU against a 10 s deadline; ~5.4 s at the edge.
  mec::Task heavy = slow_task(0, 0, 0.0);
  heavy.local_bytes = 2e6;
  heavy.cycles_per_byte = 8250.0;
  heavy.deadline_s = 10.0;
  heavy.id.index = 2;
  const Trace trace({Event::station_down(0.0, 0), Event::arrival(0.1, light),
                     Event::arrival(0.1, heavy), Event::station_up(1.2, 0)});
  ServeOptions opts;
  opts.readmission.max_attempts = 6;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  EXPECT_EQ(r.completed, 2u);
  ASSERT_GE(log.size(), 3u);
  // Epoch 0 (closing at 0.5): the light task runs locally without a
  // solve, the heavy one is parked.
  EXPECT_EQ(log.records()[0].task.index, 1u);
  EXPECT_EQ(log.records()[0].kind, DecisionKind::kDecide);
  EXPECT_EQ(log.records()[0].decision, assign::Decision::kLocal);
  EXPECT_GT(log.records()[0].finish_s, log.records()[0].time_s);
  EXPECT_EQ(log.records()[1].task.index, 2u);
  EXPECT_EQ(log.records()[1].kind, DecisionKind::kRetry);
  // Once the cell is back the heavy task is offloaded by a shard solve.
  const DecisionRecord& last = log.records().back();
  EXPECT_EQ(last.task.index, 2u);
  EXPECT_EQ(last.kind, DecisionKind::kDecide);
  EXPECT_GE(last.time_s, 1.2);
  EXPECT_NE(last.decision, assign::Decision::kLocal);
  EXPECT_GE(r.shard_solves, 1u);
}

TEST(ServeDaemonTest, StationDownOrphansOffloadedWorkThroughTheCell) {
  const mec::Topology universe = make_universe(4, 2);
  // Compute-heavy enough that LP-HTA offloads it and it is still running
  // when its cell goes dark.
  mec::Task heavy = slow_task(0, 0, 0.0);
  heavy.cycles_per_byte = 33000.0;
  heavy.deadline_s = 60.0;
  const Trace trace({Event::arrival(0.1, heavy), Event::station_down(0.7, 0),
                     Event::station_up(0.9, 0)});
  ServeOptions opts;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  ASSERT_GE(log.size(), 2u);
  ASSERT_EQ(log.records()[0].kind, DecisionKind::kDecide);
  ASSERT_NE(log.records()[0].decision, assign::Decision::kLocal);
  ASSERT_GT(log.records()[0].finish_s, 0.7);
  EXPECT_EQ(r.orphaned, 1u);
  EXPECT_EQ(log.records()[1].kind, DecisionKind::kRetry);
  EXPECT_DOUBLE_EQ(log.records()[1].time_s, 0.7);
  EXPECT_EQ(r.completed, 1u);
}

TEST(ServeDaemonTest, AdmittedTasksAllReachExactlyOneTerminalState) {
  const workload::ServeWorkload w = churny_workload();
  ServeOptions opts;
  opts.sharding.num_shards = 2;
  const ServeResult r = ServeDaemon(opts).run(w.universe, w.trace);
  EXPECT_FALSE(r.stopped_early);
  EXPECT_EQ(r.arrivals, r.admitted + r.rejected);
  EXPECT_EQ(r.admitted, r.completed + r.expired + r.lost_issuer +
                            r.exhausted + r.abandoned);
  EXPECT_GE(r.decisions, r.completed);
}

TEST(ServeDaemonTest, DepartingOwnerOrphansTheRunningTask) {
  const mec::Topology universe = make_universe(4, 2);
  std::vector<Event> events;
  events.push_back(Event::arrival(0.1, slow_task(0, 2, 1e6)));
  events.push_back(Event::leave(0.7, 2));  // the data owner departs
  const Trace trace(std::move(events));

  ServeOptions opts;
  opts.readmission.max_attempts = 2;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  // Decided at the first boundary, torn out when the owner left, and the
  // owner never returns: the retry budget runs out.
  EXPECT_GE(r.orphaned, 1u);
  EXPECT_GE(r.retries, 1u);
  EXPECT_EQ(r.exhausted, 1u);
  EXPECT_EQ(r.completed, 0u);
  bool saw_retry = false, saw_exhausted = false;
  for (const DecisionRecord& rec : log.records()) {
    saw_retry |= rec.kind == DecisionKind::kRetry;
    saw_exhausted |= rec.kind == DecisionKind::kExhausted;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_exhausted);
}

TEST(ServeDaemonTest, DepartingIssuerLosesTheRunningTask) {
  const mec::Topology universe = make_universe(4, 2);
  std::vector<Event> events;
  events.push_back(Event::arrival(0.1, slow_task(0, 0, 0.0)));
  events.push_back(Event::leave(0.7, 0));  // the issuer itself departs
  const Trace trace(std::move(events));
  const ServeResult r = ServeDaemon(ServeOptions{}).run(universe, trace);
  EXPECT_EQ(r.lost_issuer, 1u);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.exhausted, 0u);
}

TEST(ServeDaemonTest, MidEpochMigrationReroutesTheTaskToTheNewCell) {
  // Two stations, two shards. Device 0 issues from station 0, then
  // migrates to station 1 before the window closes: the decision must be
  // made in shard 1, against the device's current cell.
  const mec::Topology universe = make_universe(4, 2);
  mec::Task task = slow_task(0, 0, 0.0);
  task.local_bytes = 100e3;  // light: decided and completed promptly
  std::vector<Event> events;
  events.push_back(Event::arrival(0.1, task));
  events.push_back(Event::migrate(0.2, 0, 1));
  const Trace trace(std::move(events));

  ServeOptions opts;
  opts.sharding.num_shards = 2;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  EXPECT_EQ(r.decisions, 1u);
  bool saw_decide = false;
  for (const DecisionRecord& rec : log.records()) {
    if (rec.kind != DecisionKind::kDecide) continue;
    saw_decide = true;
    EXPECT_EQ(rec.shard, 1u);
  }
  EXPECT_TRUE(saw_decide);
}

// A trace whose tail is churn: once the last task has settled, the loop
// stops instead of beating through the faults left in the trace.
TEST(ServeDaemonTest, RunEndsWhenTheLastTaskSettles) {
  const mec::Topology universe = make_universe(4, 2);
  mec::Task task = slow_task(0, 0, 0.0);
  task.local_bytes = 100e3;  // light: decided and completed promptly
  const Trace trace({Event::arrival(0.1, task), Event::leave(300.0, 3),
                     Event::join(400.0, 3, 1), Event::station_down(500.0, 1),
                     Event::station_up(600.0, 1),
                     Event::link_fade(700.0, 2, 0.5)});
  ServeOptions opts;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  EXPECT_EQ(r.completed, 1u);
  ASSERT_EQ(log.size(), 1u);
  const double finish_s = log.records()[0].finish_s;
  ASSERT_LT(finish_s, 300.0);
  // The run ends at the first epoch boundary at or past the finish: that
  // epoch collects the completion, and no epoch follows it.
  const double window_s = opts.batching.window_s;
  EXPECT_GE(r.virtual_now_s, finish_s);
  EXPECT_LT(r.virtual_now_s, finish_s + window_s);
  EXPECT_EQ(static_cast<double>(r.epochs) * window_s, r.virtual_now_s);
  EXPECT_EQ(r.events, 1u);  // the churn tail is never ingested
}

TEST(ServeDaemonTest, AdmissionRejectionsAreCountedAndLogged) {
  const workload::ServeWorkload w = churny_workload();
  ServeOptions opts;
  opts.admission.max_queue = 3;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(w.universe, w.trace, &log);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.arrivals, r.admitted + r.rejected);
  std::size_t reject_records = 0;
  for (const DecisionRecord& rec : log.records()) {
    reject_records += rec.kind == DecisionKind::kReject ? 1 : 0;
  }
  EXPECT_EQ(reject_records, r.rejected);
}

TEST(ServeDaemonTest, PreCancelledStopTokenEndsTheRunImmediately) {
  const workload::ServeWorkload w = churny_workload();
  CancellationSource stop;
  stop.request_cancel();
  const ServeResult r =
      ServeDaemon(ServeOptions{}).run(w.universe, w.trace, nullptr, stop.token());
  EXPECT_TRUE(r.stopped_early);
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(r.decisions, 0u);
}

TEST(ServeDaemonTest, BatchSizeCapStillDrainsEveryArrival) {
  const workload::ServeWorkload w = churny_workload();
  ServeOptions opts;
  opts.batching.max_batch = 4;  // force many small epochs
  const ServeResult r = ServeDaemon(opts).run(w.universe, w.trace);
  EXPECT_EQ(r.arrivals, r.admitted + r.rejected);
  EXPECT_EQ(r.admitted, r.completed + r.expired + r.lost_issuer +
                            r.exhausted + r.abandoned);
}

}  // namespace
}  // namespace mecsched::serve
