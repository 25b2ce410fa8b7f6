#include "exec/fingerprint.h"

#include <gtest/gtest.h>

#include "assign/hta_instance.h"
#include "workload/scenario.h"

namespace mecsched::exec {
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
  const assign::HtaInstance ia(a.topology, a.tasks);
  const assign::HtaInstance ib(b.topology, b.tasks);
  EXPECT_EQ(fingerprint(ia), fingerprint(ib));
}

TEST(FingerprintTest, SeedAndSizeChangeTheFingerprint) {
  const workload::Scenario base = small_scenario(11);
  const workload::Scenario reseeded = small_scenario(12);
  const workload::Scenario bigger = small_scenario(11, 13);
  const assign::HtaInstance i0(base.topology, base.tasks);
  const assign::HtaInstance i1(reseeded.topology, reseeded.tasks);
  const assign::HtaInstance i2(bigger.topology, bigger.tasks);
  EXPECT_NE(fingerprint(i0), fingerprint(i1));
  EXPECT_NE(fingerprint(i0), fingerprint(i2));
}

TEST(FingerprintTest, DeadlineTweakChangesTheFingerprint) {
  const workload::Scenario s = small_scenario(11);
  auto tweaked = s.tasks;
  tweaked[0].deadline_s += 0.125;
  const assign::HtaInstance before(s.topology, s.tasks);
  const assign::HtaInstance after(s.topology, tweaked);
  EXPECT_NE(fingerprint(before), fingerprint(after));
}

TEST(MixTest, OrderAndStringSensitivity) {
  EXPECT_NE(mix(1, 2), mix(2, 1));
  EXPECT_NE(hash_string("LP-HTA"), hash_string("HGOS"));
  EXPECT_EQ(hash_string("LP-HTA"), hash_string("LP-HTA"));
}

}  // namespace
}  // namespace mecsched::exec
