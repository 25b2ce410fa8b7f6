// ResilientController acceptance tests. The headline scenario follows the
// fault drill the module was built for: a seeded churn schedule with three
// device failures, one recovery and one station outage, under which the
// controller must strictly beat replaying a one-shot clairvoyant LP-HTA
// plan through the same schedule, rescue at least one orphaned divisible
// task by DTA re-division, and absorb a forced LP-HTA SolverError without
// aborting.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "control/resilient.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace mecsched::control {
namespace {

using assign::Decision;
using assign::HtaInstance;
using mec::TimedTask;
using sim::FaultKind;
using sim::FaultSchedule;

mec::Topology topology(std::uint64_t seed = 21) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = 1;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg).topology;
}

mec::Task task(std::size_t issuer, std::size_t index, double alpha_bytes,
               double beta_bytes, std::size_t owner, double deadline_s) {
  mec::Task t;
  t.id = {issuer, index};
  t.local_bytes = alpha_bytes;
  t.external_bytes = beta_bytes;
  t.external_owner = owner;
  t.deadline_s = deadline_s;
  return t;
}

// The drill: devices from cluster 0 host the owner-failure stories, cluster
// 1 hosts the cell outage, and one issuer dies outright.
struct Drill {
  mec::Topology topo = topology();
  std::vector<TimedTask> tasks;
  FaultSchedule faults;
  SharedDataView shared;

  std::size_t issuer_a = 0, owner_a = 0;    // owner fails at 0, back at 2
  std::size_t issuer_b = 0, owner_b = 0;    // owner dies at 1, stays down
  std::size_t replica_b = 0;                // second copy of B's data item
  std::size_t issuer_c = 0;                 // in the dark cell
  std::size_t dead_issuer = 0;              // dies at 0, stays down

  Drill() {
    const std::vector<std::size_t>& c0 = topo.cluster(0);
    const std::vector<std::size_t>& c1 = topo.cluster(1);
    EXPECT_GE(c0.size(), 5u);
    EXPECT_GE(c1.size(), 2u);
    issuer_a = c0[0];
    owner_a = c0[1];
    issuer_b = c0[2];
    owner_b = c0[3];
    replica_b = c0[4];
    issuer_c = c1[0];
    dead_issuer = c1[1];

    // A1/A2: external data on owner_a; lost to the replay, retried by the
    // controller once owner_a recovers at t = 2.
    tasks.push_back({task(issuer_a, 0, 100e3, 500e3, owner_a, 20.0), 0.0});
    tasks.push_back({task(issuer_a, 1, 100e3, 500e3, owner_a, 20.0), 0.0});
    // B: a divisible task with a 2 MB item held by owner_b and replica_b.
    // Its fetch outlives owner_b (dead at t = 1), so it is orphaned mid-run
    // and must come back through DTA re-division.
    tasks.push_back({task(issuer_b, 0, 50e3, 2e6, owner_b, 30.0), 0.0});
    // C1/C2: compute-heavy tasks in the dark cell — local execution misses
    // the deadline, so they must wait for their station (down until t = 3).
    mec::Task heavy = task(issuer_c, 0, 1e6, 0.0, issuer_c, 30.0);
    heavy.cycles_per_byte = 33000.0;
    tasks.push_back({heavy, 0.0});
    heavy.id.index = 1;
    tasks.push_back({heavy, 0.0});
    // D: its issuer is gone for good; nobody can win this one.
    tasks.push_back({task(dead_issuer, 0, 200e3, 0.0, dead_issuer, 20.0), 0.0});

    faults = FaultSchedule({
        {0.0, FaultKind::kDeviceFail, owner_a, 1.0},
        {2.0, FaultKind::kDeviceRecover, owner_a, 1.0},
        {1.0, FaultKind::kDeviceFail, owner_b, 1.0},
        {0.0, FaultKind::kDeviceFail, dead_issuer, 1.0},
        {0.0, FaultKind::kStationFail, 1, 1.0},
        {3.0, FaultKind::kStationRecover, 1, 1.0},
    });

    shared.item_bytes = {2e6};
    shared.ownership.assign(topo.num_devices(), {});
    shared.ownership[owner_b] = {0};
    shared.ownership[replica_b] = {0};
    shared.task_items.assign(tasks.size(), {});
    shared.task_items[2] = {0};  // task B
  }
};

TEST(ResilientControllerTest, BeatsOneShotReplayUnderChurn) {
  Drill drill;
  ASSERT_GE(drill.faults.device_failures(), 3u);
  ASSERT_GE(drill.faults.station_failures(), 1u);

  ResilientOptions opts;
  opts.readmission.max_attempts = 6;
  const ResilientResult r = ResilientController(opts).run(
      drill.topo, drill.tasks, drill.faults, &drill.shared);

  // The one-shot clairvoyant plan, replayed through the same schedule.
  std::vector<mec::Task> flat;
  for (const TimedTask& tt : drill.tasks) flat.push_back(tt.task);
  const HtaInstance inst(drill.topo, flat);
  const assign::Assignment plan = assign::LpHta().assign(inst);
  sim::SimOptions sim_opts;
  sim_opts.faults = drill.faults;
  const sim::SimResult replay = sim::simulate(inst, plan, sim_opts);
  std::size_t replay_unsat = 0;
  for (std::size_t t = 0; t < flat.size(); ++t) {
    const sim::TaskTimeline& tl = replay.timelines[t];
    if (!tl.placed || tl.failed ||
        tl.latency_s() > flat[t].deadline_s + 1e-9) {
      ++replay_unsat;
    }
  }

  EXPECT_LT(r.unsatisfied, replay_unsat);  // the acceptance inequality
  EXPECT_GE(r.orphaned, 1u);
  EXPECT_GE(r.rescued_by_dta, 1u);         // B came back via re-division
  EXPECT_GE(r.retries, 1u);

  // Per-task fates: only the dead-issuer task is unsatisfiable.
  EXPECT_EQ(r.outcomes[0].fate, TaskFate::kCompleted);
  EXPECT_EQ(r.outcomes[1].fate, TaskFate::kCompleted);
  EXPECT_EQ(r.outcomes[2].fate, TaskFate::kRescuedByDta);
  EXPECT_EQ(r.outcomes[3].fate, TaskFate::kCompleted);
  EXPECT_EQ(r.outcomes[4].fate, TaskFate::kCompleted);
  EXPECT_EQ(r.outcomes[5].fate, TaskFate::kLostIssuer);
  EXPECT_EQ(r.unsatisfied, 1u);
  EXPECT_EQ(r.completed, 5u);

  // The A tasks waited for the recovery: they start no earlier than t = 2.
  EXPECT_GE(r.outcomes[0].start_s, 2.0);
  EXPECT_GT(r.outcomes[0].attempts, 1u);
}

TEST(ResilientControllerTest, ForcedSolverErrorIsAbsorbedByTheChain) {
  workload::ScenarioConfig cfg;
  cfg.seed = 22;
  cfg.num_tasks = 40;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  const workload::Scenario s = workload::make_scenario(cfg);
  std::vector<TimedTask> timed;
  for (const mec::Task& t : s.tasks) timed.push_back({t, 0.0});

  ResilientOptions opts;
  opts.lp.max_lp_iterations = 1;  // rung 0 throws SolverError every epoch
  ResilientResult r;
  ASSERT_NO_THROW(r = ResilientController(opts).run(s.topology, timed,
                                                    FaultSchedule{}));
  EXPECT_EQ(r.rungs.at(FallbackRung::kLpHta), 0u);
  EXPECT_GT(r.rungs.at(FallbackRung::kHgos), 0u);
  EXPECT_GT(r.completed, 0u);
}

TEST(ResilientControllerTest, QuietScheduleCompletesEasyTasks) {
  const mec::Topology topo = topology(23);
  std::vector<TimedTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.push_back({task(i, 0, 200e3, 0.0, i, 20.0), 0.1 * double(i)});
  }
  const ResilientResult r =
      ResilientController().run(topo, tasks, FaultSchedule{});
  EXPECT_EQ(r.completed, tasks.size());
  EXPECT_EQ(r.unsatisfied, 0u);
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.orphaned, 0u);
  EXPECT_DOUBLE_EQ(r.unsatisfied_rate(), 0.0);
  for (const ResilientTaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, TaskFate::kCompleted);
    EXPECT_NE(o.decision, Decision::kCancelled);
    EXPECT_EQ(o.attempts, 1u);
  }
}

TEST(ResilientControllerTest, RetriesExhaustWhenTheOwnerNeverReturns) {
  const mec::Topology topo = topology(24);
  std::vector<TimedTask> tasks;
  // No shared view: the dead owner's data cannot be re-divided.
  tasks.push_back({task(1, 0, 100e3, 400e3, 2, 1e6), 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kDeviceFail, 2, 1.0}});
  ResilientOptions opts;
  opts.readmission.max_attempts = 3;
  const ResilientResult r = ResilientController(opts).run(topo, tasks, faults);
  EXPECT_EQ(r.unsatisfied, 1u);
  EXPECT_EQ(r.outcomes[0].fate, TaskFate::kRetriesExhausted);
  EXPECT_EQ(r.outcomes[0].attempts, opts.readmission.max_attempts);
  EXPECT_EQ(r.retries, opts.readmission.max_attempts - 1);
}

TEST(ResilientControllerTest, SimultaneousReleasesAdmitInInputOrder) {
  // Forty identical tasks released at t = 0 must be admitted in input
  // order, exactly like the same stream released 1 us apart inside the
  // first epoch. Which copy gets which placement follows batch order, so
  // an unstable sort of the arrivals (which scrambles ties past 16
  // elements) moves per-task outcomes.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    workload::ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.num_tasks = 1;
    cfg.num_devices = 4;
    cfg.num_base_stations = 1;
    const workload::Scenario s = workload::make_scenario(cfg);
    std::vector<TimedTask> together, staggered;
    for (std::size_t i = 0; i < 40; ++i) {
      mec::Task t = s.tasks[0];
      t.id.index = i;
      together.push_back({t, 0.0});
      staggered.push_back({t, 1e-6 * static_cast<double>(i)});
    }
    const ResilientResult a =
        ResilientController().run(s.topology, together, FaultSchedule{});
    const ResilientResult b =
        ResilientController().run(s.topology, staggered, FaultSchedule{});
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate)
          << "seed " << seed << " task " << i;
      EXPECT_EQ(a.outcomes[i].decision, b.outcomes[i].decision)
          << "seed " << seed << " task " << i;
      EXPECT_EQ(a.outcomes[i].start_s, b.outcomes[i].start_s)
          << "seed " << seed << " task " << i;
      EXPECT_EQ(a.outcomes[i].finish_s, b.outcomes[i].finish_s)
          << "seed " << seed << " task " << i;
    }
  }
}

TEST(ResilientControllerTest, ValidatesItsInputs) {
  const mec::Topology topo = topology(25);
  std::vector<TimedTask> tasks = {{task(0, 0, 1e3, 0.0, 0, 5.0), 0.0}};
  ResilientOptions opts;
  opts.epoch_s = 0.0;
  EXPECT_THROW(ResilientController(opts).run(topo, tasks, FaultSchedule{}),
               ModelError);
  opts = ResilientOptions{};
  opts.readmission.max_attempts = 0;
  EXPECT_THROW(ResilientController(opts).run(topo, tasks, FaultSchedule{}),
               ModelError);
  // Fault targets are validated against the topology.
  const FaultSchedule bad({{0.0, FaultKind::kDeviceFail, 99, 1.0}});
  EXPECT_THROW(ResilientController().run(topo, tasks, bad), ModelError);
  // A misaligned shared view is rejected.
  SharedDataView shared;
  shared.task_items.resize(2);
  shared.ownership.resize(topo.num_devices());
  EXPECT_THROW(
      ResilientController().run(topo, tasks, FaultSchedule{}, &shared),
      ModelError);
}

}  // namespace
}  // namespace mecsched::control
