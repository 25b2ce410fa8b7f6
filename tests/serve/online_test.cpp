// Plain online scheduling: a task stream through the serve daemon with no
// faults and one admission per task (what `mecsched online` runs), plus
// the Poisson arrival generator that feeds it.
#include <gtest/gtest.h>

#include <cmath>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/arrivals.h"

namespace mecsched::serve {
namespace {

using assign::Assignment;
using assign::Decision;
using assign::HtaInstance;
using assign::LpHta;
using assign::Metrics;

workload::TimedScenario timed(std::uint64_t seed, std::size_t tasks = 50,
                              double rate = 25.0) {
  workload::ArrivalConfig cfg;
  cfg.scenario.seed = seed;
  cfg.scenario.num_tasks = tasks;
  cfg.scenario.num_devices = 15;
  cfg.scenario.num_base_stations = 3;
  cfg.arrival_rate_per_s = rate;
  return workload::make_timed_scenario(cfg);
}

ServeOptions online_options(double epoch_s = 0.5) {
  ServeOptions opts;
  opts.batching.window_s = epoch_s;
  opts.readmission.max_attempts = 1;
  return opts;
}

StreamResult run_online(const workload::TimedScenario& s,
                        double epoch_s = 0.5) {
  return run_stream(online_options(epoch_s), s.topology, s.tasks);
}

TEST(OnlineSchedulerTest, EveryTaskGetsAnOutcome) {
  const auto s = timed(1);
  const StreamResult r = run_online(s);
  ASSERT_EQ(r.outcomes.size(), s.tasks.size());
  for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
    const auto& o = r.outcomes[i];
    if (o.decision == Decision::kCancelled) continue;
    EXPECT_GE(o.start_s, s.tasks[i].release_s);   // never before release
    EXPECT_GT(o.finish_s, o.start_s);
  }
  EXPECT_GT(r.serve.decide_epochs, 1u);
  EXPECT_GT(r.serve.total_energy_j, 0.0);
}

TEST(OnlineSchedulerTest, EmptyStream) {
  const auto s = timed(2, 5);
  const StreamResult r = run_stream(online_options(), s.topology, {});
  EXPECT_TRUE(r.outcomes.empty());
  EXPECT_EQ(r.serve.decide_epochs, 0u);
}

TEST(OnlineSchedulerTest, StartsAlignToEpochBoundaries) {
  const auto s = timed(3);
  const StreamResult r = run_online(s, 0.25);
  for (const auto& o : r.outcomes) {
    if (o.decision == Decision::kCancelled) continue;
    const double k = o.start_s / 0.25;
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
}

TEST(OnlineSchedulerTest, ResponseIncludesWaiting) {
  // Mean response >= mean service latency because of epoch batching.
  const auto s = timed(4);
  const StreamResult r = run_online(s);
  double service = 0.0;
  std::size_t placed = 0;
  for (const auto& o : r.outcomes) {
    if (o.decision == Decision::kCancelled) continue;
    service += o.finish_s - o.start_s;
    ++placed;
  }
  ASSERT_GT(placed, 0u);
  EXPECT_GE(r.mean_response_s, service / static_cast<double>(placed) - 1e-9);
}

TEST(OnlineSchedulerTest, NeverExceedsOfflineEnergyByMuchOnSlackSystems) {
  // With light load the online policy should track the clairvoyant
  // offline assignment (same tasks, all known upfront) closely.
  const auto s = timed(5, 40, /*rate=*/5.0);  // light load
  const StreamResult online = run_online(s);

  std::vector<mec::Task> all;
  for (const auto& t : s.tasks) all.push_back(t.task);
  const HtaInstance inst(s.topology, all);
  const Metrics offline = evaluate(inst, LpHta().assign(inst));

  EXPECT_GE(online.serve.total_energy_j, offline.total_energy_j * 0.5);
  EXPECT_LE(online.serve.total_energy_j, offline.total_energy_j * 1.5);
}

TEST(OnlineSchedulerTest, SlowEpochsIncreaseCancellations) {
  // Batching at 2 s eats most of a ~1-3 s relative deadline.
  const auto s = timed(6, 60, 30.0);
  const StreamResult fr = run_online(s, 0.1);
  const StreamResult sr = run_online(s, 2.0);
  EXPECT_LE(fr.unsatisfied(), sr.unsatisfied());
}

TEST(OnlineSchedulerTest, OutcomesReplayExactlyOnTheSimulator) {
  // Cross-module validation: replaying the online schedule on the DES with
  // release times = the chosen epoch starts must reproduce the analytic
  // finish times exactly (no contention).
  const auto s = timed(10, 30);
  const StreamResult r = run_online(s);

  std::vector<mec::Task> tasks;
  sim::SimOptions opts;
  Assignment plan;
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    tasks.push_back(s.tasks[i].task);
    plan.decisions.push_back(r.outcomes[i].decision);
    opts.release_times.push_back(r.outcomes[i].start_s);
  }
  const HtaInstance inst(s.topology, tasks);
  const sim::SimResult replay = sim::simulate(inst, plan, opts);
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    if (r.outcomes[i].decision == Decision::kCancelled) continue;
    EXPECT_NEAR(replay.timelines[i].finish_s, r.outcomes[i].finish_s,
                1e-9 * (1.0 + r.outcomes[i].finish_s))
        << "task " << i;
  }
}

TEST(OnlineSchedulerTest, RejectsNonPositiveEpoch) {
  const auto s = timed(7, 5);
  EXPECT_THROW(run_online(s, 0.0), ModelError);
}

TEST(ArrivalsTest, ReleaseTimesAreSortedAndPositive) {
  const auto s = timed(8, 100);
  double prev = 0.0;
  for (const auto& t : s.tasks) {
    EXPECT_GE(t.release_s, prev);
    prev = t.release_s;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(ArrivalsTest, StaticAttributesMatchQuasiStaticScenario) {
  workload::ArrivalConfig cfg;
  cfg.scenario.seed = 12;
  cfg.scenario.num_tasks = 30;
  const auto timed_scenario = workload::make_timed_scenario(cfg);
  const auto static_scenario = workload::make_scenario(cfg.scenario);
  ASSERT_EQ(timed_scenario.tasks.size(), static_scenario.tasks.size());
  for (std::size_t i = 0; i < static_scenario.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(timed_scenario.tasks[i].task.local_bytes,
                     static_scenario.tasks[i].local_bytes);
    EXPECT_DOUBLE_EQ(timed_scenario.tasks[i].task.deadline_s,
                     static_scenario.tasks[i].deadline_s);
  }
}

TEST(ArrivalsTest, RateControlsDensity) {
  const auto slow = timed(9, 50, 5.0);
  const auto fast = timed(9, 50, 50.0);
  EXPECT_GT(slow.tasks.back().release_s, fast.tasks.back().release_s);
}

}  // namespace
}  // namespace mecsched::serve
