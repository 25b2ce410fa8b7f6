// End-to-end daemon tests: replay determinism across worker counts, churn
// reconciliation, admission accounting, and task conservation.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "mec/cost_model.h"
#include "mec/parameters.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
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
// run mixes churn (lost and orphaned work), owners in another cell than
// their tasks' issuers and devices that never issue a task.
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
  // The trace exercises what the digest is meant to guard.
  const auto cell = [&](std::size_t g) {
    return w.universe.device(g).base_station;
  };
  std::vector<char> issues(w.universe.num_devices(), 0);
  std::size_t cross_cell = 0;
  for (const Event& e : w.trace.events()) {
    if (e.kind != EventKind::kTaskArrival) continue;
    issues[e.task.id.user] = 1;
    if (e.task.external_bytes > 0.0 &&
        cell(e.task.external_owner) != cell(e.task.id.user)) {
      ++cross_cell;
    }
  }
  EXPECT_GT(cross_cell, 0u);
  EXPECT_LT(std::count(issues.begin(), issues.end(), 1),
            static_cast<std::ptrdiff_t>(issues.size()));

  DecisionLog log;
  const ServeResult r = ServeDaemon().run(w.universe, w.trace, &log);
  EXPECT_GT(r.decisions, 0u);
  EXPECT_GT(r.orphaned + r.lost_issuer, 0u);
  EXPECT_EQ(log.digest(), 0x1878f530418aa8bbull);
}

// The city-scale run of bench/serve_steady_state: 100k devices, 250
// cells, 4 x 0.5 s epochs, 24k arrivals/s with churn.
workload::ServeWorkload city_workload() {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 100000;
  cfg.scenario.num_base_stations = 250;
  cfg.scenario.seed = 1;
  cfg.epochs = 4;
  cfg.epoch_s = 0.5;
  cfg.arrival_rate_per_s = 24000.0;
  cfg.join_rate_per_s = 10.0;
  cfg.leave_rate_per_s = 10.0;
  cfg.migrate_rate_per_s = 40.0;
  return workload::make_serve_workload(cfg);
}

// The city run, pinned at one and four workers: the decision log, and two
// work counters the digest cannot see — simplex pivots, and devices
// materialized into the epoch topologies.
TEST(ServeDaemonTest, CityScaleRunIsPinned) {
  const workload::ServeWorkload w = city_workload();
  ServeOptions opts;
  opts.batching.window_s = 0.5;

  obs::Registry& reg = obs::Registry::global();
  for (const std::size_t jobs : {1u, 4u}) {
    opts.jobs = jobs;
    const std::uint64_t pivots0 = reg.counter("lp.simplex.pivots").value();
    const std::uint64_t devices0 = reg.counter("serve.shard.devices").value();
    DecisionLog log;
    ServeDaemon(opts).run(w.universe, w.trace, &log);
    EXPECT_EQ(log.digest(), 0xf7381f29a85cd31dull) << "jobs " << jobs;
    EXPECT_EQ(reg.counter("lp.simplex.pivots").value() - pivots0, 2223u)
        << "jobs " << jobs;
    EXPECT_EQ(reg.counter("serve.shard.devices").value() - devices0, 85540u)
        << "jobs " << jobs;
  }
}

// The city run's flight record at one and four workers: the same records
// in the same order, all but the two fields that read the clock.
TEST(ServeDaemonTest, FlightRecordIsTheSameAtAnyWorkerCount) {
  const workload::ServeWorkload w = city_workload();
  ServeOptions opts;
  opts.batching.window_s = 0.5;
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  std::vector<std::vector<obs::SolveRecord>> runs;
  for (const std::size_t jobs : {1u, 4u}) {
    opts.jobs = jobs;
    flight.enable();
    ServeDaemon(opts).run(w.universe, w.trace);
    flight.disable();
    runs.push_back(flight.snapshot());
    EXPECT_EQ(flight.dropped(), 0u) << "jobs " << jobs;
  }
  flight.clear();
  const std::vector<obs::SolveRecord>& one = runs[0];
  const std::vector<obs::SolveRecord>& four = runs[1];
  EXPECT_GT(one.size(), 1000u);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    const obs::SolveRecord& a = one[i];
    const obs::SolveRecord& b = four[i];
    EXPECT_EQ(a.seq, b.seq) << "record " << i;
    EXPECT_EQ(a.layer, b.layer) << "record " << i;
    EXPECT_EQ(a.engine, b.engine) << "record " << i;
    EXPECT_EQ(a.status, b.status) << "record " << i;
    EXPECT_EQ(a.detail, b.detail) << "record " << i;
    EXPECT_EQ(a.iterations, b.iterations) << "record " << i;
    EXPECT_EQ(a.deadline_hit, b.deadline_hit) << "record " << i;
    EXPECT_EQ(a.warm_start, b.warm_start) << "record " << i;
    EXPECT_EQ(a.chaos_hits, b.chaos_hits) << "record " << i;
    EXPECT_EQ(a.audit, b.audit) << "record " << i;
  }
}

// A daemon built with jobs = 0 solves inline unless --jobs or
// MECSCHED_JOBS asks for more than one worker: a pool on a host that
// gives no in-process speedup only adds queueing.
TEST(ServeDaemonTest, DefaultOptionsSolveInlineWhenNoWorkerCountIsAsked) {
  const workload::ServeWorkload w = churny_workload();
  obs::Counter& tasks = obs::Registry::global().counter("exec.pool.tasks");
  const char* env = std::getenv("MECSCHED_JOBS");
  const std::string saved = env == nullptr ? "" : env;
  ASSERT_EQ(unsetenv("MECSCHED_JOBS"), 0);

  const std::uint64_t tasks0 = tasks.value();
  const ServeResult r = ServeDaemon().run(w.universe, w.trace);
  EXPECT_GT(r.decisions, 0u);
  EXPECT_EQ(tasks.value(), tasks0);

  // Asked for, the same options fan out.
  exec::ThreadPool::set_default_jobs(4);
  const std::uint64_t tasks1 = tasks.value();
  ServeDaemon().run(w.universe, w.trace);
  exec::ThreadPool::set_default_jobs(0);
  EXPECT_GT(tasks.value(), tasks1);

  if (env != nullptr) {
    ASSERT_EQ(setenv("MECSCHED_JOBS", saved.c_str(), 1), 0);
  }
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
  // Once the cell is back the heavy task is offloaded by an epoch solve.
  const DecisionRecord& last = log.records().back();
  EXPECT_EQ(last.task.index, 2u);
  EXPECT_EQ(last.kind, DecisionKind::kDecide);
  EXPECT_GE(last.time_s, 1.2);
  EXPECT_NE(last.decision, assign::Decision::kLocal);
  EXPECT_GE(r.rungs.total(), 1u);
}

// A dark-cell local run is priced on the devices as they are now: the
// issuer and its in-cell data owner with their faded radios, exactly as
// the cost model prices the task on a universe holding those radios.
TEST(ServeDaemonTest, DarkCellLocalRunIsPricedOnTheLiveDevices) {
  const mec::Topology universe = make_universe(4, 2);
  mec::Task task = slow_task(0, 2, 200e3);  // owner 2 shares cell 0
  task.local_bytes = 1e3;
  const Trace trace({Event::station_down(0.0, 0),
                     Event::link_fade(0.0, 0, 0.25),
                     Event::link_fade(0.0, 2, 0.5), Event::arrival(0.1, task)});
  DecisionLog log;
  ServeDaemon(ServeOptions{}).run(universe, trace, &log);
  ASSERT_EQ(log.size(), 1u);
  const DecisionRecord& rec = log.records()[0];
  ASSERT_EQ(rec.kind, DecisionKind::kDecide);
  ASSERT_EQ(rec.decision, assign::Decision::kLocal);

  std::vector<mec::Device> faded;
  for (std::size_t i = 0; i < universe.num_devices(); ++i) {
    faded.push_back(universe.device(i));
  }
  faded[0].radio.upload_bps *= 0.25;
  faded[0].radio.download_bps *= 0.25;
  faded[2].radio.upload_bps *= 0.5;
  faded[2].radio.download_bps *= 0.5;
  const mec::Topology live(std::move(faded),
                           {universe.base_station(0), universe.base_station(1)},
                           universe.params());
  const mec::CostEntry expected =
      mec::CostModel(live).evaluate(task, mec::Placement::kLocal);
  EXPECT_EQ(rec.energy_j, expected.energy_j);
  EXPECT_EQ(rec.finish_s, rec.time_s + expected.latency_s());
}

// Dark-cell local runs of one issuer share its capacity: in one epoch a
// run that no longer fits next to the runs started before it waits, and a
// smaller one after it still starts; the waiting run starts once the
// device is free again.
TEST(ServeDaemonTest, DarkCellRunsOfOneIssuerShareItsCapacity) {
  const mec::Topology universe = make_universe(4, 2);  // 8 units a device
  mec::Task first = slow_task(0, 0, 0.0);  // 1.1 s of device CPU
  first.resource = 5.0;
  first.id.index = 1;
  mec::Task second = slow_task(0, 0, 0.0);
  second.local_bytes = 1e3;
  second.resource = 5.0;  // 5 + 5 > 8
  second.id.index = 2;
  mec::Task third = slow_task(0, 0, 0.0);
  third.local_bytes = 1e3;
  third.resource = 3.0;  // 5 + 3 <= 8
  third.id.index = 3;
  const Trace trace({Event::station_down(0.0, 0), Event::arrival(0.1, first),
                     Event::arrival(0.1, second), Event::arrival(0.1, third)});
  ServeOptions opts;
  opts.readmission.max_attempts = 6;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(universe, trace, &log);
  EXPECT_EQ(r.completed, 3u);
  EXPECT_EQ(r.rungs.total(), 0u);
  ASSERT_GE(log.size(), 5u);
  const std::vector<DecisionRecord>& recs = log.records();
  EXPECT_EQ(recs[0].task.index, 1u);
  EXPECT_EQ(recs[0].kind, DecisionKind::kDecide);
  EXPECT_EQ(recs[0].decision, assign::Decision::kLocal);
  EXPECT_EQ(recs[1].task.index, 2u);
  EXPECT_EQ(recs[1].kind, DecisionKind::kRetry);
  EXPECT_EQ(recs[2].task.index, 3u);
  EXPECT_EQ(recs[2].kind, DecisionKind::kDecide);
  EXPECT_EQ(recs[2].decision, assign::Decision::kLocal);
  EXPECT_EQ(recs[2].time_s, recs[0].time_s);
  // The second task retries while the first runs and starts once it ends.
  const double first_done = recs[0].finish_s;
  for (std::size_t i = 3; i + 1 < recs.size(); ++i) {
    EXPECT_EQ(recs[i].task.index, 2u);
    EXPECT_EQ(recs[i].kind, DecisionKind::kRetry);
    EXPECT_LT(recs[i].time_s, first_done);
  }
  EXPECT_EQ(recs.back().task.index, 2u);
  EXPECT_EQ(recs.back().kind, DecisionKind::kDecide);
  EXPECT_EQ(recs.back().decision, assign::Decision::kLocal);
  EXPECT_GE(recs.back().time_s, first_done);
}

// A task with no input takes no time: its dark-cell local run ends at
// the instant it starts, so like any run that has ended it holds nothing,
// and the issuer's next task in the same epoch fits beside it.
TEST(ServeDaemonTest, DarkCellRunOfNoInputHoldsNoCapacity) {
  const mec::Topology universe = make_universe(4, 2);  // 8 units a device
  mec::Task empty = slow_task(0, 0, 0.0);
  empty.local_bytes = 0.0;
  empty.resource = 5.0;
  empty.id.index = 1;
  mec::Task next = empty;  // 5 + 5 > 8 only if the first still held 5
  next.id.index = 2;
  const Trace trace({Event::station_down(0.0, 0), Event::arrival(0.1, empty),
                     Event::arrival(0.1, next)});
  DecisionLog log;
  const ServeResult r = ServeDaemon(ServeOptions{}).run(universe, trace, &log);
  EXPECT_EQ(r.completed, 2u);
  ASSERT_EQ(log.size(), 2u);
  for (const DecisionRecord& rec : log.records()) {
    EXPECT_EQ(rec.kind, DecisionKind::kDecide);
    EXPECT_EQ(rec.decision, assign::Decision::kLocal);
    EXPECT_EQ(rec.finish_s, rec.time_s);
    EXPECT_EQ(rec.epoch, 0u);
  }
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
  const ServeResult r = ServeDaemon().run(w.universe, w.trace);
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
  // Device 0 issues from station 0, then migrates to station 1 before the
  // window closes: the decision must be made against its current cell.
  // Station 0 has no room and the device too little for the task, so only
  // station 1 can take it at the edge, and station 1 computes twice as
  // fast, so an edge run priced in station 0 would finish later.
  const mec::Topology base = make_universe(4, 2);
  std::vector<mec::Device> devices;
  for (std::size_t i = 0; i < base.num_devices(); ++i) {
    devices.push_back(base.device(i));
  }
  devices[0].max_resource = 0.5;
  std::vector<mec::BaseStation> stations{base.base_station(0),
                                         base.base_station(1)};
  stations[0].max_resource = 0.0;
  stations[1].cpu_hz *= 2.0;
  const mec::Topology universe(devices, stations, base.params());
  mec::Task task = slow_task(0, 0, 0.0);
  task.local_bytes = 100e3;  // light: decided and completed promptly
  std::vector<Event> events;
  events.push_back(Event::arrival(0.1, task));
  events.push_back(Event::migrate(0.2, 0, 1));
  const Trace trace(std::move(events));

  DecisionLog log;
  const ServeResult r = ServeDaemon().run(universe, trace, &log);
  EXPECT_EQ(r.decisions, 1u);
  devices[0].base_station = 1;
  const mec::Topology moved(std::move(devices), std::move(stations),
                            base.params());
  const mec::CostEntry edge =
      mec::CostModel(moved).evaluate(task, mec::Placement::kEdge);
  bool saw_decide = false;
  for (const DecisionRecord& rec : log.records()) {
    if (rec.kind != DecisionKind::kDecide) continue;
    saw_decide = true;
    EXPECT_EQ(rec.decision, assign::Decision::kEdge);
    EXPECT_EQ(rec.energy_j, edge.energy_j);
    EXPECT_EQ(rec.finish_s, rec.time_s + edge.latency_s());
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
  opts.readmission.max_queue = 3;
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

// A pinned decision log for a run that hits the waiting-room cap: most
// arrivals are rejected, and retries in backoff count toward the depth.
TEST(ServeDaemonTest, QueueCapRunIsPinned) {
  const workload::ServeWorkload w = churny_workload();
  ServeOptions opts;
  opts.readmission.max_queue = 3;
  DecisionLog log;
  const ServeResult r = ServeDaemon(opts).run(w.universe, w.trace, &log);
  EXPECT_EQ(r.arrivals, 54u);
  EXPECT_EQ(r.rejected, 42u);
  EXPECT_EQ(r.retries, 4u);
  EXPECT_EQ(log.size(), 59u);
  EXPECT_EQ(log.digest(), 0x4aa82a412842b0e1ull);
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
