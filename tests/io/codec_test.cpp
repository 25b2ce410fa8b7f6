#include "io/codec.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/error.h"

namespace mecsched::io {
namespace {

workload::Scenario sample_scenario() {
  workload::ScenarioConfig cfg;
  cfg.num_devices = 8;
  cfg.num_base_stations = 2;
  cfg.num_tasks = 15;
  cfg.seed = 33;
  return workload::make_scenario(cfg);
}

TEST(CodecTest, TopologyRoundTrip) {
  const auto s = sample_scenario();
  const mec::Topology restored =
      topology_from_json(topology_to_json(s.topology));
  ASSERT_EQ(restored.num_devices(), s.topology.num_devices());
  ASSERT_EQ(restored.num_base_stations(), s.topology.num_base_stations());
  for (std::size_t i = 0; i < restored.num_devices(); ++i) {
    EXPECT_DOUBLE_EQ(restored.device(i).cpu_hz, s.topology.device(i).cpu_hz);
    EXPECT_EQ(restored.device(i).base_station,
              s.topology.device(i).base_station);
    EXPECT_DOUBLE_EQ(restored.device(i).radio.upload_bps,
                     s.topology.device(i).radio.upload_bps);
    EXPECT_DOUBLE_EQ(restored.device(i).max_resource,
                     s.topology.device(i).max_resource);
  }
  EXPECT_DOUBLE_EQ(restored.params().kappa, s.topology.params().kappa);
}

TEST(CodecTest, TaskRoundTripPreservesEveryField) {
  mec::Task t;
  t.id = {3, 9};
  t.local_bytes = 123456.0;
  t.external_bytes = 7890.0;
  t.external_owner = 5;
  t.cycles_per_byte = 441.0;
  t.result_kind = mec::ResultSizeKind::kConstant;
  t.result_const_bytes = 42.0;
  t.resource = 2.5;
  t.deadline_s = 1.75;
  const mec::Task r = task_from_json(task_to_json(t));
  EXPECT_EQ(r.id, t.id);
  EXPECT_DOUBLE_EQ(r.local_bytes, t.local_bytes);
  EXPECT_DOUBLE_EQ(r.external_bytes, t.external_bytes);
  EXPECT_EQ(r.external_owner, t.external_owner);
  EXPECT_DOUBLE_EQ(r.cycles_per_byte, t.cycles_per_byte);
  EXPECT_EQ(r.result_kind, t.result_kind);
  EXPECT_DOUBLE_EQ(r.result_const_bytes, t.result_const_bytes);
  EXPECT_DOUBLE_EQ(r.resource, t.resource);
  EXPECT_DOUBLE_EQ(r.deadline_s, t.deadline_s);
}

TEST(CodecTest, ScenarioRoundTripPreservesCosts) {
  // The real invariant: a restored scenario produces identical assignments
  // and energies, not just equal fields.
  const auto s = sample_scenario();
  const workload::Scenario r = scenario_from_json(scenario_to_json(s));

  const assign::HtaInstance a(s.topology, s.tasks);
  const assign::HtaInstance b(r.topology, r.tasks);
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t t = 0; t < a.num_tasks(); ++t) {
    for (mec::Placement p : mec::kAllPlacements) {
      EXPECT_DOUBLE_EQ(a.energy(t, p), b.energy(t, p));
      EXPECT_DOUBLE_EQ(a.latency(t, p), b.latency(t, p));
    }
  }
  const auto plan_a = assign::LpHta().assign(a);
  const auto plan_b = assign::LpHta().assign(b);
  EXPECT_EQ(plan_a.decisions, plan_b.decisions);
}

TEST(CodecTest, ConfigRoundTrip) {
  const workload::ScenarioConfig r = config_from_json(Json::parse(
      R"({"num_tasks": 77, "max_input_kb": 1234.0,
          "result_kind": "constant", "seed": 99})"));
  EXPECT_EQ(r.num_tasks, 77u);
  EXPECT_DOUBLE_EQ(r.max_input_kb, 1234.0);
  EXPECT_EQ(r.result_kind, mec::ResultSizeKind::kConstant);
  EXPECT_EQ(r.seed, 99u);
}

TEST(CodecTest, SparseConfigKeepsDefaults) {
  const workload::ScenarioConfig defaults;
  const workload::ScenarioConfig r =
      config_from_json(Json::parse(R"({"num_tasks": 5})"));
  EXPECT_EQ(r.num_tasks, 5u);
  EXPECT_EQ(r.num_devices, defaults.num_devices);
  EXPECT_DOUBLE_EQ(r.deadline_slack_max, defaults.deadline_slack_max);
}

TEST(CodecTest, AssignmentRoundTrip) {
  assign::Assignment a;
  a.decisions = {assign::Decision::kLocal, assign::Decision::kEdge,
                 assign::Decision::kCloud, assign::Decision::kCancelled};
  const assign::Assignment r = assignment_from_json(assignment_to_json(a));
  EXPECT_EQ(r.decisions, a.decisions);
}

TEST(CodecTest, BadDecisionStringThrows) {
  EXPECT_THROW(assignment_from_json(Json::parse(R"({"decisions":["moon"]})")),
               JsonError);
}

TEST(CodecTest, MetricsSerializeAllFields) {
  assign::Metrics m;
  m.num_tasks = 10;
  m.cancelled = 1;
  m.deadline_violations = 2;
  m.total_energy_j = 5.5;
  const Json j = metrics_to_json(m);
  EXPECT_DOUBLE_EQ(j.at("num_tasks").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(j.at("unsatisfied_rate").as_number(), 0.3);
  EXPECT_DOUBLE_EQ(j.at("total_energy_j").as_number(), 5.5);
}

TEST(FileIoTest, RoundTrip) {
  const std::string path = ::testing::TempDir() + "codec_file_test.json";
  write_file(path, "{\"x\": 1}");
  EXPECT_EQ(read_file(path), "{\"x\": 1}");
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/nope.json"), ModelError);
  EXPECT_THROW(write_file("/nonexistent/nope.json", "x"), ModelError);
}

}  // namespace
}  // namespace mecsched::io
