// Budgeted control-plane behaviour (docs/robustness.md): the FallbackChain
// under a cancellation token — exhausted budgets skip straight to the
// greedy floor, all-rungs-fail still raises a structured error. The epoch
// loop's residual-deadline arithmetic under the budget is checked in
// tests/serve/stream_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/error.h"

#include "assign/assigner.h"
#include "control/fallback.h"
#include "workload/scenario.h"

namespace mecsched::control {
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

}  // namespace
}  // namespace mecsched::control
