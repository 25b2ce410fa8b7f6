#include "audit/assignment_audit.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "audit/audit.h"
#include "common/rng.h"
#include "workload/scenario.h"
#include "workload/stress.h"

namespace mecsched::audit {
namespace {

workload::Scenario small_scenario(std::uint64_t seed) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = 16;
  cfg.num_devices = 6;
  cfg.num_base_stations = 2;
  cfg.seed = seed;
  return workload::make_scenario(cfg);
}

assign::Assignment all_cancelled(std::size_t n) {
  assign::Assignment a;
  a.decisions.assign(n, assign::Decision::kCancelled);
  return a;
}

std::string constraint_of(const assign::HtaInstance& instance,
                          const assign::Assignment& plan,
                          const AssignmentContract& contract) {
  try {
    check_assignment(instance, plan, contract, "test");
  } catch (const AuditError& e) {
    EXPECT_EQ(e.component(), "assign");
    return e.constraint();
  }
  return "";
}

TEST(AssignmentAuditTest, FeasiblePlanPassesAtFull) {
  const ScopedLevel scope(Level::kFull);
  const workload::Scenario s = small_scenario(3);
  const assign::HtaInstance instance(s.topology, s.tasks);
  const assign::Assignment plan = assign::LocalFirst().assign(instance);
  EXPECT_NO_THROW(check_assignment(
      instance, plan, {.deadlines = true, .capacity = true}, "test"));
}

TEST(AssignmentAuditTest, DeadlineMissedByEpsilonTripsC1) {
  const ScopedLevel scope(Level::kCheap);
  const workload::Scenario s = small_scenario(4);
  // Shrink task 0's deadline to epsilon below its local latency, then
  // claim a local placement for it: C1 is violated by exactly epsilon.
  const assign::HtaInstance probe(s.topology, s.tasks);
  auto tasks = s.tasks;
  tasks[0].deadline_s = probe.latency(0, mec::Placement::kLocal) - 1e-6;
  const assign::HtaInstance instance(s.topology, tasks);
  ASSERT_FALSE(instance.meets_deadline(0, mec::Placement::kLocal));

  assign::Assignment plan = all_cancelled(instance.num_tasks());
  plan.decisions[0] = assign::Decision::kLocal;
  EXPECT_EQ(constraint_of(instance, plan, {.deadlines = true, .capacity = true}),
            "C1:deadline:task=0");
  // A deadline-free contract (HGOS/baselines) accepts the same plan: late
  // tasks are the measured unsatisfied rate there, not a bug.
  EXPECT_EQ(
      constraint_of(instance, plan, {.deadlines = false, .capacity = true}),
      "");
}

TEST(AssignmentAuditTest, DeviceOverloadTripsC2) {
  const ScopedLevel scope(Level::kCheap);
  const workload::Scenario s = small_scenario(5);
  auto tasks = s.tasks;
  const std::size_t owner = tasks[0].id.user;
  tasks[0].resource = s.topology.device(owner).max_resource * 2.0;
  const assign::HtaInstance instance(s.topology, tasks);

  assign::Assignment plan = all_cancelled(instance.num_tasks());
  plan.decisions[0] = assign::Decision::kLocal;
  EXPECT_EQ(
      constraint_of(instance, plan, {.deadlines = false, .capacity = true}),
      "C2:device=" + std::to_string(owner));
}

TEST(AssignmentAuditTest, StationOverloadTripsC3) {
  const ScopedLevel scope(Level::kCheap);
  const workload::Scenario s = small_scenario(6);
  auto tasks = s.tasks;
  const std::size_t owner = tasks[0].id.user;
  const std::size_t station = s.topology.device(owner).base_station;
  tasks[0].resource = s.topology.base_station(station).max_resource * 2.0;
  const assign::HtaInstance instance(s.topology, tasks);

  assign::Assignment plan = all_cancelled(instance.num_tasks());
  plan.decisions[0] = assign::Decision::kEdge;
  EXPECT_EQ(
      constraint_of(instance, plan, {.deadlines = false, .capacity = true}),
      "C3:station=" + std::to_string(station));
}

TEST(AssignmentAuditTest, WrongPlanSizeTripsShape) {
  const ScopedLevel scope(Level::kCheap);
  const workload::Scenario s = small_scenario(7);
  const assign::HtaInstance instance(s.topology, s.tasks);
  const assign::Assignment plan = all_cancelled(instance.num_tasks() - 1);
  EXPECT_EQ(
      constraint_of(instance, plan, {.deadlines = false, .capacity = true}),
      "shape:size");
}

TEST(AssignmentAuditTest, OffLevelIsANoOpEvenOnGarbage) {
  const ScopedLevel scope(Level::kOff);
  const workload::Scenario s = small_scenario(8);
  const assign::HtaInstance instance(s.topology, s.tasks);
  const assign::Assignment plan = all_cancelled(instance.num_tasks() - 1);
  EXPECT_NO_THROW(check_assignment(
      instance, plan, {.deadlines = true, .capacity = true}, "test"));
}

// check_feasibility and a full-contract audit judge a plan by one rule
// set: on random plans over random scenarios and the stress fixtures, the
// report is ok exactly when the audit does not throw.
TEST(AssignmentAuditTest, AgreesWithCheckFeasibilityOnRandomPlans) {
  const ScopedLevel scope(Level::kCheap);
  std::vector<workload::Scenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    workload::ScenarioConfig cfg;
    cfg.num_tasks = 10 + 8 * seed;
    cfg.num_devices = 4 + seed;
    cfg.num_base_stations = 1 + seed % 3;
    cfg.seed = seed;
    scenarios.push_back(workload::make_scenario(cfg));
  }
  scenarios.push_back(workload::make_hotspot_scenario(12, 3, 40, 7));
  scenarios.push_back(workload::make_knife_edge_scenario(30, 8));
  scenarios.push_back(workload::make_miniature_scenario());

  Rng rng(2024);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (std::size_t k = 0; k < scenarios.size(); ++k) {
    const assign::HtaInstance instance(scenarios[k].topology,
                                       scenarios[k].tasks);
    for (int round = 0; round < 60; ++round) {
      // Plans from nearly all-cancelled to nearly all-placed; every other
      // plan places tasks only where they meet their deadlines, so that
      // capacity alone decides it.
      const double cancel = rng.uniform(0.0, 1.0);
      const bool on_time = round % 2 == 1;
      assign::Assignment plan = all_cancelled(instance.num_tasks());
      for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
        if (rng.bernoulli(cancel)) continue;
        const auto d = static_cast<assign::Decision>(rng.uniform_int(0, 2));
        if (!on_time || instance.meets_deadline(t, assign::to_placement(d))) {
          plan.decisions[t] = d;
        }
      }
      const bool ok = assign::check_feasibility(instance, plan).ok;
      const std::string failed = constraint_of(
          instance, plan, {.deadlines = true, .capacity = true});
      EXPECT_EQ(ok, failed.empty())
          << "scenario " << k << " round " << round << ": " << failed;
      ++(ok ? feasible : infeasible);
    }
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

}  // namespace
}  // namespace mecsched::audit
