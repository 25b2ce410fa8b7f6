// Budgeted control-plane behaviour (docs/robustness.md): the FallbackChain
// under a cancellation token — exhausted budgets skip straight to the
// greedy floor, all-rungs-fail still raises a structured error — and the
// ResilientController's residual-deadline arithmetic when the per-epoch
// decision budget eats into task slack (zero / negative residuals at epoch
// boundaries).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/error.h"

#include "assign/assigner.h"
#include "control/fallback.h"
#include "control/resilient.h"
#include "workload/scenario.h"

namespace mecsched::control {
namespace {

using assign::Assignment;
using assign::Decision;
using assign::HtaInstance;
using mec::TimedTask;

workload::Scenario scenario(std::uint64_t seed, std::size_t tasks = 30) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg);
}

class ThrowingAssigner : public assign::Assigner {
 public:
  Assignment assign(const HtaInstance&) const override {
    throw SolverError("stub blowup");
  }
  std::string name() const override { return "Throwing"; }
};

class AllLocalAssigner : public assign::Assigner {
 public:
  Assignment assign(const HtaInstance& instance) const override {
    Assignment a;
    a.decisions.assign(instance.num_tasks(), Decision::kLocal);
    return a;
  }
  std::string name() const override { return "AllLocal"; }
};

TEST(FallbackBudgetTest, UnlimitedTokenMatchesTheUnbudgetedPath) {
  const auto s = scenario(11);
  const HtaInstance inst(s.topology, s.tasks);
  FallbackRung plain_rung = FallbackRung::kLocalFirst;
  FallbackRung budgeted_rung = FallbackRung::kLocalFirst;
  const FallbackChain chain;
  const Assignment plain = chain.assign(inst, plain_rung);
  const Assignment budgeted =
      chain.assign(inst, budgeted_rung, CancellationToken{});
  EXPECT_EQ(plain_rung, budgeted_rung);
  EXPECT_EQ(plain.decisions, budgeted.decisions);
}

TEST(FallbackBudgetTest, ExhaustedBudgetSkipsToTheFinalRung) {
  const auto s = scenario(12);
  const HtaInstance inst(s.topology, s.tasks);
  const CancellationToken expired{Deadline::after_s(0.0)};
  FallbackRung served = FallbackRung::kLpHta;
  const Assignment plan = FallbackChain().assign(inst, served, expired);
  // The final rung is the O(n log n) floor: it always runs, budget or not.
  EXPECT_EQ(served, FallbackRung::kLocalFirst);
  EXPECT_EQ(plan.size(), inst.num_tasks());
}

TEST(FallbackBudgetTest, CancelRequestSkipsNonFinalRungs) {
  const auto s = scenario(13, 10);
  const HtaInstance inst(s.topology, s.tasks);
  CancellationSource source;
  source.request_cancel();
  FallbackChain chain({std::make_shared<ThrowingAssigner>(),
                       std::make_shared<AllLocalAssigner>()});
  FallbackRung served = FallbackRung::kLpHta;
  // Rung 0 (throwing) must be skipped, not run: the plan arrives from the
  // final rung without any SolverError in between.
  const Assignment plan = chain.assign(inst, served, source.token());
  EXPECT_EQ(served, FallbackRung::kHgos);  // slot 1 by position
  EXPECT_EQ(plan.count(Decision::kLocal), inst.num_tasks());
}

TEST(FallbackBudgetTest, AllRungsFailingUnderBudgetRaisesStructuredError) {
  const auto s = scenario(14, 5);
  const HtaInstance inst(s.topology, s.tasks);
  FallbackChain chain({std::make_shared<ThrowingAssigner>(),
                       std::make_shared<ThrowingAssigner>()});
  FallbackRung served = FallbackRung::kLpHta;
  try {
    chain.assign(inst, served, CancellationToken{Deadline::after_s(3600.0)});
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("every fallback rung failed"),
              std::string::npos);
  }
}

// --- ResilientController residual-deadline arithmetic -------------------

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
  ResilientOptions opts;
  opts.decision_budget_ms = -1.0;
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  EXPECT_THROW(ResilientController(opts).run(topo, tasks, {}), ModelError);
  opts.decision_budget_ms = std::nan("");
  EXPECT_THROW(ResilientController(opts).run(topo, tasks, {}), ModelError);
}

TEST(ResilientBudgetTest, GenerousBudgetStillCompletesEverything) {
  ResilientOptions opts;
  opts.decision_budget_ms = 10.0;  // tiny against 10 s deadlines
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const ResilientResult r = ResilientController(opts).run(topo, tasks, {});
  EXPECT_EQ(r.completed, tasks.size());
  for (const ResilientTaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, TaskFate::kCompleted);
  }
}

TEST(ResilientBudgetTest, BudgetConsumingAllSlackExpiresTasksAtTriage) {
  // At the first epoch boundary (t = 0.5) a 10 s deadline has 9.5 s of
  // residual slack; a 9.8 s decision budget eats past it, so the residual
  // goes negative and every task must expire at triage — deterministically,
  // because the *configured* budget is charged, not measured wall time.
  ResilientOptions opts;
  opts.epoch_s = 0.5;
  opts.decision_budget_ms = 9800.0;
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const ResilientResult r = ResilientController(opts).run(topo, tasks, {});
  EXPECT_EQ(r.completed, 0u);
  for (const ResilientTaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, TaskFate::kDeadlineExpired);
  }
}

TEST(ResilientBudgetTest, ZeroResidualBoundaryExpiresInsteadOfUnderflowing) {
  // Deadline == epoch + budget exactly: the residual at triage is 0, which
  // must count as expired (a zero-second task cannot run), not wrap into a
  // bogus negative-deadline LP.
  ResilientOptions opts;
  opts.epoch_s = 0.5;
  opts.decision_budget_ms = 9500.0;  // 0.5 + 9.5 == the 10 s deadline
  const mec::Topology topo = small_topology();
  const auto tasks = light_tasks(topo, 10.0);
  const ResilientResult r = ResilientController(opts).run(topo, tasks, {});
  for (const ResilientTaskOutcome& o : r.outcomes) {
    EXPECT_EQ(o.fate, TaskFate::kDeadlineExpired);
  }
}

}  // namespace
}  // namespace mecsched::control
