// Task streams under fault schedules through the serve daemon (what
// `mecsched churn` runs). The headline scenario is a fault drill: a churn
// schedule with three device failures, one recovery and one station
// outage, under which the epoch loop must strictly beat replaying a
// one-shot clairvoyant LP-HTA plan through the same schedule, rescue at
// least one orphaned divisible task by DTA re-division, and absorb a
// forced LP-HTA SolverError without aborting. The budget tests check the
// residual-deadline arithmetic when the per-epoch decision budget eats
// into task slack (zero / negative residuals at epoch boundaries).
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/error.h"

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using assign::HtaInstance;
using control::FallbackRung;
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
    const std::span<const std::size_t> c0 = topo.cluster(0);
    const std::span<const std::size_t> c1 = topo.cluster(1);
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

TEST(ChurnStreamTest, BeatsOneShotReplayUnderChurn) {
  Drill drill;
  ASSERT_GE(drill.faults.device_failures(), 3u);
  ASSERT_GE(drill.faults.station_failures(), 1u);

  ServeOptions opts;
  opts.readmission.max_attempts = 6;
  const StreamResult r = run_stream(opts, drill.topo, drill.tasks,
                                    drill.faults, &drill.shared);

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

  EXPECT_LT(r.unsatisfied(), replay_unsat);  // the acceptance inequality
  EXPECT_GE(r.serve.orphaned, 1u);
  EXPECT_GE(r.serve.rescued, 1u);            // B came back via re-division
  EXPECT_GE(r.serve.retries, 1u);

  // Per-task fates: only the dead-issuer task is unsatisfiable.
  EXPECT_EQ(r.outcomes[0].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[1].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[2].fate, DecisionKind::kRescue);
  EXPECT_EQ(r.outcomes[3].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[4].fate, DecisionKind::kDecide);
  EXPECT_EQ(r.outcomes[5].fate, DecisionKind::kLostIssuer);
  EXPECT_EQ(r.unsatisfied(), 1u);
  EXPECT_EQ(r.serve.completed, 5u);

  // The A tasks waited for the recovery: they start no earlier than t = 2.
  EXPECT_GE(r.outcomes[0].start_s, 2.0);
  EXPECT_GT(r.outcomes[0].attempts, 1u);
}

TEST(ChurnStreamTest, ForcedSolverErrorIsAbsorbedByTheChain) {
  workload::ScenarioConfig cfg;
  cfg.seed = 22;
  cfg.num_tasks = 40;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  const workload::Scenario s = workload::make_scenario(cfg);
  std::vector<TimedTask> timed;
  for (const mec::Task& t : s.tasks) timed.push_back({t, 0.0});

  ServeOptions opts;
  opts.lp.max_lp_iterations = 1;  // rung 0 throws SolverError every epoch
  StreamResult r;
  ASSERT_NO_THROW(r = run_stream(opts, s.topology, timed));
  EXPECT_EQ(r.serve.rungs.at(FallbackRung::kLpHta), 0u);
  EXPECT_GT(r.serve.rungs.at(FallbackRung::kHgos), 0u);
  EXPECT_GT(r.serve.completed, 0u);
}

TEST(ChurnStreamTest, QuietScheduleCompletesEasyTasks) {
  const mec::Topology topo = topology(23);
  std::vector<TimedTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.push_back({task(i, 0, 200e3, 0.0, i, 20.0), 0.1 * double(i)});
  }
  const StreamResult r = run_stream({}, topo, tasks);
  EXPECT_EQ(r.serve.completed, tasks.size());
  EXPECT_EQ(r.unsatisfied(), 0u);
  EXPECT_EQ(r.serve.retries, 0u);
  EXPECT_EQ(r.serve.orphaned, 0u);
  EXPECT_DOUBLE_EQ(r.unsatisfied_rate(), 0.0);
  for (const StreamOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kDecide);
    EXPECT_NE(o.decision, Decision::kCancelled);
    EXPECT_EQ(o.attempts, 1u);
  }
}

TEST(ChurnStreamTest, RetriesExhaustWhenTheOwnerNeverReturns) {
  const mec::Topology topo = topology(24);
  std::vector<TimedTask> tasks;
  // No shared view: the dead owner's data cannot be re-divided.
  tasks.push_back({task(1, 0, 100e3, 400e3, 2, 1e6), 0.0});
  const FaultSchedule faults({{0.0, FaultKind::kDeviceFail, 2, 1.0}});
  ServeOptions opts;
  opts.readmission.max_attempts = 3;
  const StreamResult r = run_stream(opts, topo, tasks, faults);
  EXPECT_EQ(r.unsatisfied(), 1u);
  EXPECT_EQ(r.outcomes[0].fate, DecisionKind::kExhausted);
  EXPECT_EQ(r.outcomes[0].attempts, opts.readmission.max_attempts);
  EXPECT_EQ(r.serve.retries, opts.readmission.max_attempts - 1);
}

TEST(ChurnStreamTest, SimultaneousReleasesAdmitInInputOrder) {
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
    const StreamResult a = run_stream({}, s.topology, together);
    const StreamResult b = run_stream({}, s.topology, staggered);
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

TEST(ChurnStreamTest, ValidatesItsInputs) {
  const mec::Topology topo = topology(25);
  std::vector<TimedTask> tasks = {{task(0, 0, 1e3, 0.0, 0, 5.0), 0.0}};
  ServeOptions opts;
  opts.batching.window_s = 0.0;
  EXPECT_THROW(run_stream(opts, topo, tasks), ModelError);
  opts = ServeOptions{};
  opts.readmission.max_attempts = 0;
  EXPECT_THROW(run_stream(opts, topo, tasks), ModelError);
  // Fault targets are validated against the topology.
  const FaultSchedule bad({{0.0, FaultKind::kDeviceFail, 99, 1.0}});
  EXPECT_THROW(run_stream({}, topo, tasks, bad), ModelError);
  // A misaligned shared view is rejected.
  SharedDataView shared;
  shared.task_items.resize(2);
  shared.ownership.resize(topo.num_devices());
  EXPECT_THROW(run_stream({}, topo, tasks, {}, &shared), ModelError);
  // Outcomes are read back by task id, so ids must be unique.
  tasks.push_back(tasks.front());
  EXPECT_THROW(run_stream({}, topo, tasks), ModelError);
}

// --- Residual-deadline arithmetic under the epoch budget ----------------

std::vector<TimedTask> light_tasks(const mec::Topology& topo,
                                   double deadline_s) {
  std::vector<TimedTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    mec::Task t;
    t.id = {topo.cluster(0)[i % topo.cluster(0).size()], i};
    t.local_bytes = 50e3;
    t.external_bytes = 0.0;
    t.deadline_s = deadline_s;
    tasks.push_back({t, 0.0});
  }
  return tasks;
}

mec::Topology small_topology() {
  workload::ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.num_tasks = 1;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg).topology;
}

TEST(ResilientBudgetTest, RejectsBadDecisionBudgets) {
  ServeOptions opts;
  opts.epoch_budget_ms = -1.0;
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  EXPECT_THROW(run_stream(opts, topo, tasks), ModelError);
  opts.epoch_budget_ms = std::nan("");
  EXPECT_THROW(run_stream(opts, topo, tasks), ModelError);
}

TEST(ResilientBudgetTest, GenerousBudgetStillCompletesEverything) {
  ServeOptions opts;
  opts.epoch_budget_ms = 10.0;  // tiny against 10 s deadlines
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const StreamResult r = run_stream(opts, topo, tasks);
  EXPECT_EQ(r.serve.completed, tasks.size());
  for (const StreamOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kDecide);
  }
}

TEST(ResilientBudgetTest, BudgetConsumingAllSlackExpiresTasksAtTriage) {
  // At the first epoch boundary (t = 0.5) a 10 s deadline has 9.5 s of
  // residual slack; a 9.8 s decision budget eats past it, so the residual
  // goes negative and every task must expire at triage — deterministically,
  // because the *configured* budget is charged, not measured wall time.
  ServeOptions opts;
  opts.batching.window_s = 0.5;
  opts.epoch_budget_ms = 9800.0;
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const StreamResult r = run_stream(opts, topo, tasks);
  EXPECT_EQ(r.serve.completed, 0u);
  for (const StreamOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kExpire);
  }
}

TEST(ResilientBudgetTest, ZeroResidualBoundaryExpiresInsteadOfUnderflowing) {
  // Deadline == epoch + budget exactly: the residual at triage is 0, which
  // must count as expired (a zero-second task cannot run), not wrap into a
  // bogus negative-deadline LP.
  ServeOptions opts;
  opts.batching.window_s = 0.5;
  opts.epoch_budget_ms = 9500.0;  // 0.5 + 9.5 == the 10 s deadline
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const StreamResult r = run_stream(opts, topo, tasks);
  for (const StreamOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, DecisionKind::kExpire);
  }
}

}  // namespace
}  // namespace mecsched::serve
