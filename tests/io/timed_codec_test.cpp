#include <gtest/gtest.h>

#include "io/codec.h"
#include "serve/stream.h"
#include "workload/arrivals.h"

namespace mecsched::io {
namespace {

workload::TimedScenario sample() {
  workload::ArrivalConfig cfg;
  cfg.scenario.seed = 91;
  cfg.scenario.num_tasks = 18;
  cfg.scenario.num_devices = 6;
  cfg.scenario.num_base_stations = 2;
  cfg.arrival_rate_per_s = 10.0;
  return workload::make_timed_scenario(cfg);
}

// What `mecsched online` runs: no faults, one admission per task.
serve::StreamResult run_online(const workload::TimedScenario& s) {
  serve::ServeOptions opts;
  opts.readmission.max_attempts = 1;
  return serve::run_stream(opts, s.topology, s.tasks);
}

TEST(TimedCodecTest, RoundTripPreservesReleasesAndTasks) {
  const auto s = sample();
  const auto restored =
      timed_scenario_from_json(timed_scenario_to_json(s));
  ASSERT_EQ(restored.tasks.size(), s.tasks.size());
  for (std::size_t i = 0; i < s.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored.tasks[i].release_s, s.tasks[i].release_s);
    EXPECT_DOUBLE_EQ(restored.tasks[i].task.local_bytes,
                     s.tasks[i].task.local_bytes);
    EXPECT_DOUBLE_EQ(restored.tasks[i].task.deadline_s,
                     s.tasks[i].task.deadline_s);
  }
}

TEST(TimedCodecTest, RoundTripPreservesOnlineScheduling) {
  const auto s = sample();
  const auto restored = timed_scenario_from_json(timed_scenario_to_json(s));
  const auto a = run_online(s);
  const auto b = run_online(restored);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_DOUBLE_EQ(a.serve.total_energy_j, b.serve.total_energy_j);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].decision, b.outcomes[i].decision);
  }
}

TEST(TimedCodecTest, OnlineResultSerializes) {
  const auto s = sample();
  const auto r = run_online(s);
  const Json j = online_result_to_json(r);
  EXPECT_EQ(j.at("outcomes").as_array().size(), s.tasks.size());
  EXPECT_DOUBLE_EQ(j.at("total_energy_j").as_number(),
                   r.serve.total_energy_j);
  EXPECT_DOUBLE_EQ(j.at("mean_response_s").as_number(), r.mean_response_s);
  EXPECT_EQ(j.at("cancelled").as_number(),
            static_cast<double>(r.unsatisfied()));
  EXPECT_EQ(Json::parse(j.dump()), j);
}

}  // namespace
}  // namespace mecsched::io
