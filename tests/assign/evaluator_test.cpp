#include "assign/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "mec/parameters.h"

namespace mecsched::assign {
namespace {

// The instance borrows its tasks, so a temporary task vector must not
// compile.
static_assert(!std::is_constructible_v<HtaInstance, const mec::Topology&,
                                       std::vector<mec::Task>&&>);

using units::gigahertz;

mec::Topology tiny_topology(double device_cap = 10.0, double station_cap = 10.0) {
  std::vector<mec::Device> devices = {
      {0, 0, gigahertz(1.0), mec::k4G, device_cap},
      {1, 0, gigahertz(2.0), mec::kWiFi, device_cap},
  };
  std::vector<mec::BaseStation> stations = {{0, gigahertz(4.0), station_cap}};
  return mec::Topology(std::move(devices), std::move(stations),
                       mec::SystemParameters{});
}

mec::Task tiny_task(std::size_t user, std::size_t index, double deadline,
                    double resource = 1.0) {
  mec::Task t;
  t.id = {user, index};
  t.local_bytes = 1e5;
  t.external_bytes = 0.0;
  t.external_owner = user == 0 ? 1 : 0;
  t.deadline_s = deadline;
  t.resource = resource;
  return t;
}

TEST(EvaluatorTest, CountsPlacements) {
  const auto topo = tiny_topology();
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0),
                                     tiny_task(1, 0, 100.0),
                                     tiny_task(0, 1, 100.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kLocal, Decision::kEdge, Decision::kCloud};
  const Metrics m = evaluate(inst, a);
  EXPECT_EQ(m.on_local, 1u);
  EXPECT_EQ(m.on_edge, 1u);
  EXPECT_EQ(m.on_cloud, 1u);
  EXPECT_EQ(m.cancelled, 0u);
  EXPECT_DOUBLE_EQ(m.unsatisfied_rate(), 0.0);
}

TEST(EvaluatorTest, EnergyIsSumOfPlacedTasks) {
  const auto topo = tiny_topology();
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0),
                                     tiny_task(1, 0, 100.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kLocal, Decision::kCancelled};
  const Metrics m = evaluate(inst, a);
  EXPECT_NEAR(m.total_energy_j, inst.energy(0, mec::Placement::kLocal), 1e-12);
  EXPECT_EQ(m.cancelled, 1u);
  EXPECT_DOUBLE_EQ(m.unsatisfied_rate(), 0.5);
}

TEST(EvaluatorTest, DeadlineViolationsCounted) {
  const auto topo = tiny_topology();
  // deadline impossible on cloud (250 ms WAN latency) but fine locally
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 0.2)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kCloud};
  const Metrics m = evaluate(inst, a);
  EXPECT_EQ(m.deadline_violations, 1u);
  EXPECT_DOUBLE_EQ(m.unsatisfied_rate(), 1.0);
}

TEST(EvaluatorTest, MeanAndMaxLatency) {
  const auto topo = tiny_topology();
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0),
                                     tiny_task(1, 0, 100.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kLocal, Decision::kLocal};
  const Metrics m = evaluate(inst, a);
  const double l0 = inst.latency(0, mec::Placement::kLocal);
  const double l1 = inst.latency(1, mec::Placement::kLocal);
  EXPECT_NEAR(m.mean_latency_s, (l0 + l1) / 2.0, 1e-12);
  EXPECT_NEAR(m.max_latency_s, std::max(l0, l1), 1e-12);
}

TEST(EvaluatorTest, SizeMismatchThrows) {
  const auto topo = tiny_topology();
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 1.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;  // empty
  EXPECT_THROW(evaluate(inst, a), ModelError);
  EXPECT_THROW(check_feasibility(inst, a), ModelError);
}

TEST(FeasibilityTest, FlagsDeviceOverload) {
  const auto topo = tiny_topology(/*device_cap=*/1.5);
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0, 1.0),
                                     tiny_task(0, 1, 100.0, 1.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kLocal, Decision::kLocal};  // 2.0 > 1.5
  const FeasibilityReport rep = check_feasibility(inst, a);
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(rep.problems.size(), 1u);
  EXPECT_NE(rep.problems[0].find("device 0"), std::string::npos);
}

TEST(FeasibilityTest, FlagsStationOverload) {
  const auto topo = tiny_topology(10.0, /*station_cap=*/0.5);
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0, 1.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kEdge};
  const FeasibilityReport rep = check_feasibility(inst, a);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.problems[0].find("station 0"), std::string::npos);
}

TEST(FeasibilityTest, CancelledTasksConsumeNothing) {
  const auto topo = tiny_topology(0.0, 0.0);
  const std::vector<mec::Task> tasks{tiny_task(0, 0, 100.0, 5.0)};
  const HtaInstance inst(topo, tasks);
  Assignment a;
  a.decisions = {Decision::kCancelled};
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

TEST(HtaInstanceTest, ClusterPartitionCoversAllTasks) {
  const auto topo = tiny_topology();
  const std::vector<mec::Task> tasks{
      tiny_task(0, 0, 1.0), tiny_task(1, 0, 1.0), tiny_task(1, 1, 1.0)};
  const HtaInstance inst(topo, tasks);
  EXPECT_EQ(inst.cluster_tasks(0).size(), 3u);  // single cluster topology
}

// Each cluster's tasks are the run of its station in the task indices
// stable-sorted by the issuer's station, stations with no device or no
// task included.
TEST(HtaInstanceTest, ClusterTasksMatchASortByStation) {
  Rng rng(43);
  std::size_t empty_clusters = 0;
  for (int round = 0; round < 60; ++round) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto pick = [&](std::size_t size) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    std::vector<mec::Device> devices(n);
    for (std::size_t i = 0; i < n; ++i) {
      devices[i] = {i, pick(k), gigahertz(1.0), mec::kWiFi, 5.0};
    }
    std::vector<mec::BaseStation> stations(k);
    for (std::size_t b = 0; b < k; ++b) {
      stations[b] = {b, gigahertz(4.0), 50.0};
    }
    const mec::Topology topo(devices, stations, mec::SystemParameters{});
    std::vector<mec::Task> tasks(static_cast<std::size_t>(
        rng.uniform_int(0, 60)));
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      tasks[t] = tiny_task(pick(n), t, 1.0);
      tasks[t].external_owner = pick(n);
    }
    const HtaInstance inst(topo, tasks);

    const auto station = [&](std::size_t t) {
      return devices[tasks[t].id.user].base_station;
    };
    std::vector<std::size_t> ids(tasks.size());
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    std::stable_sort(ids.begin(), ids.end(), [&](std::size_t x, std::size_t y) {
      return station(x) < station(y);
    });
    auto run = ids.begin();
    for (std::size_t b = 0; b < k; ++b) {
      const auto end = std::find_if(
          run, ids.end(), [&](std::size_t t) { return station(t) != b; });
      const std::vector<std::size_t> expected(run, end);
      const std::span<const std::size_t> got = inst.cluster_tasks(b);
      EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()), expected)
          << "round " << round << ", station " << b;
      if (expected.empty()) ++empty_clusters;
      run = end;
    }
  }
  EXPECT_GT(empty_clusters, 0u);
}

TEST(HtaInstanceTest, RejectsUnknownDevices) {
  const auto topo = tiny_topology();
  std::vector<mec::Task> bad{tiny_task(0, 0, 1.0)};
  bad[0].id.user = 9;
  EXPECT_THROW(HtaInstance(topo, bad), ModelError);
  std::vector<mec::Task> bad_owner{tiny_task(0, 0, 1.0)};
  bad_owner[0].external_owner = 9;
  EXPECT_THROW(HtaInstance(topo, bad_owner), ModelError);
}

TEST(DecisionTest, Conversions) {
  EXPECT_EQ(to_placement(Decision::kLocal), mec::Placement::kLocal);
  EXPECT_EQ(to_placement(Decision::kEdge), mec::Placement::kEdge);
  EXPECT_EQ(to_placement(Decision::kCloud), mec::Placement::kCloud);
  EXPECT_THROW(to_placement(Decision::kCancelled), ModelError);
  EXPECT_EQ(to_decision(mec::Placement::kEdge), Decision::kEdge);
  EXPECT_EQ(to_string(Decision::kCancelled), "cancelled");
}

}  // namespace
}  // namespace mecsched::assign
