#include "assign/hta_instance.h"

#include <gtest/gtest.h>

#include "workload/scenario.h"

namespace mecsched::assign {
namespace {

workload::Scenario small_scenario(std::uint64_t seed, std::size_t tasks = 12) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = tasks;
  cfg.num_devices = 5;
  cfg.num_base_stations = 2;
  cfg.seed = seed;
  return workload::make_scenario(cfg);
}

TEST(FingerprintTest, IdenticalInstancesAgree) {
  const workload::Scenario a = small_scenario(11);
  const workload::Scenario b = small_scenario(11);
  const HtaInstance ia(a.topology, a.tasks);
  const HtaInstance ib(b.topology, b.tasks);
  EXPECT_EQ(fingerprint(ia), fingerprint(ib));
}

TEST(FingerprintTest, SeedAndSizeChangeTheFingerprint) {
  const workload::Scenario base = small_scenario(11);
  const workload::Scenario reseeded = small_scenario(12);
  const workload::Scenario bigger = small_scenario(11, 13);
  const HtaInstance i0(base.topology, base.tasks);
  const HtaInstance i1(reseeded.topology, reseeded.tasks);
  const HtaInstance i2(bigger.topology, bigger.tasks);
  EXPECT_NE(fingerprint(i0), fingerprint(i1));
  EXPECT_NE(fingerprint(i0), fingerprint(i2));
}

TEST(FingerprintTest, DeadlineTweakChangesTheFingerprint) {
  const workload::Scenario s = small_scenario(11);
  auto tweaked = s.tasks;
  tweaked[0].deadline_s += 0.125;
  const HtaInstance before(s.topology, s.tasks);
  const HtaInstance after(s.topology, tweaked);
  EXPECT_NE(fingerprint(before), fingerprint(after));
}

}  // namespace
}  // namespace mecsched::assign
