// Failure-injection and release-time simulator tests, plus the recovery
// utility: kill a device mid-run, verify the blast radius, repair the
// plan, and confirm the repaired plan survives the same failure.
#include <gtest/gtest.h>

#include "common/error.h"

#include "assign/lp_hta.h"
#include "assign/recovery.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace mecsched::sim {
namespace {

using assign::Assignment;
using assign::Decision;
using assign::HtaInstance;

workload::Scenario scenario(std::uint64_t seed, std::size_t tasks = 30) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg);
}

// One device failure as a one-event fault schedule.
SimOptions device_failure(std::size_t device, double at_s) {
  SimOptions opts;
  opts.faults = FaultSchedule({{at_s, FaultKind::kDeviceFail, device, 1.0}});
  return opts;
}

TEST(ReleaseTimesTest, TasksStartAtTheirRelease) {
  const auto s = scenario(1, 12);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);

  SimOptions opts;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    opts.release_times.push_back(0.25 * static_cast<double>(t));
  }
  const SimResult r = simulate(inst, plan, opts);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (!r.timelines[t].placed) continue;
    EXPECT_NEAR(r.timelines[t].start_s, opts.release_times[t], 1e-12);
    // without contention the per-task latency is release-invariant
    const auto p = assign::to_placement(plan.decisions[t]);
    EXPECT_NEAR(r.timelines[t].latency_s(), inst.latency(t, p),
                1e-9 * (1.0 + inst.latency(t, p)));
  }
}

TEST(ReleaseTimesTest, WrongLengthRejected) {
  const auto s = scenario(2, 5);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  SimOptions opts;
  opts.release_times = {0.0, 1.0};  // 2 != 5
  EXPECT_THROW(simulate(inst, plan, opts), mecsched::ModelError);
}

TEST(FailureTest, ImmediateFailureKillsEverythingOnTheDevice) {
  const auto s = scenario(3, 20);
  const HtaInstance inst(s.topology, s.tasks);
  // Everything local: every task of device D must die when D dies at t=0.
  Assignment all_local;
  all_local.decisions.assign(inst.num_tasks(), Decision::kLocal);

  const SimOptions opts = device_failure(0, 0.0);
  const SimResult r = simulate(inst, all_local, opts);
  std::size_t expected_failed = 0;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    const bool uses_dev0 = inst.task(t).id.user == 0 ||
                           (inst.task(t).external_bytes > 0.0 &&
                            inst.task(t).external_owner == 0);
    if (uses_dev0) ++expected_failed;
    EXPECT_EQ(r.timelines[t].failed, uses_dev0) << "task " << t;
  }
  EXPECT_EQ(r.failed_tasks, expected_failed);
}

TEST(FailureTest, LateFailureHurtsNobody) {
  const auto s = scenario(4, 20);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  // Long after everything finished.
  const SimOptions opts = device_failure(3, 1e9);
  const SimResult r = simulate(inst, plan, opts);
  EXPECT_EQ(r.failed_tasks, 0u);
}

TEST(FailureTest, CloudAndEdgeTasksOfOtherDevicesSurvive) {
  const auto s = scenario(5, 20);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_cloud;
  all_cloud.decisions.assign(inst.num_tasks(), Decision::kCloud);
  const SimOptions opts = device_failure(1, 0.0);
  const SimResult r = simulate(inst, all_cloud, opts);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    const bool touches = inst.task(t).id.user == 1 ||
                         (inst.task(t).external_bytes > 0.0 &&
                          inst.task(t).external_owner == 1);
    EXPECT_EQ(r.timelines[t].failed, touches) << "task " << t;
  }
}

TEST(FailureTest, MidRunFailureSparesInFlightStages) {
  // A failure strictly after a task's only device stage started lets the
  // task finish.
  const auto s = scenario(6, 10);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  const SimResult clean = simulate(inst, plan);

  // Just after t=0: in-flight stages survive.
  const SimOptions opts = device_failure(2, 1e-6);
  const SimResult r = simulate(inst, plan, opts);
  // Tasks that begin a stage on device 2 exactly at t=0 keep running; only
  // those whose device-2 stages start later die. Either way, failures are
  // a subset of the tasks that touch device 2.
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (!r.timelines[t].failed) continue;
    const bool touches = inst.task(t).id.user == 2 ||
                         inst.task(t).external_owner == 2;
    EXPECT_TRUE(touches) << "task " << t;
  }
  EXPECT_LE(r.failed_tasks, clean.timelines.size());
}

TEST(RecoveryTest, RepairedPlanSurvivesTheSameFailure) {
  const auto s = scenario(7, 30);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);

  const std::size_t dead = 4;
  const auto repaired =
      assign::replan_after_device_failure(inst, plan, dead);

  const SimOptions opts = device_failure(dead, 0.0);
  const SimResult r = simulate(inst, repaired.assignment, opts);
  EXPECT_EQ(r.failed_tasks, 0u);  // nothing left touches the dead device

  // blast radius accounting
  std::size_t expected_lost = 0;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (plan.decisions[t] == Decision::kCancelled) continue;
    if (inst.task(t).id.user == dead ||
        (inst.task(t).external_bytes > 0.0 &&
         inst.task(t).external_owner == dead)) {
      ++expected_lost;
    }
  }
  EXPECT_EQ(repaired.lost_issued + repaired.lost_data, expected_lost);
}

TEST(RecoveryTest, ValidatesInputs) {
  const auto s = scenario(8, 5);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  EXPECT_THROW(assign::replan_after_device_failure(inst, plan, 99),
               ModelError);
  Assignment short_plan;
  EXPECT_THROW(assign::replan_after_device_failure(inst, short_plan, 0),
               ModelError);
}

}  // namespace
}  // namespace mecsched::sim
