// HGOS-specific behaviour: the re-implemented comparator must exhibit the
// exact blind spots the paper attributes to it — data-distribution
// blindness and deadline blindness — while still being a competent greedy.
#include "assign/hgos.h"

#include <gtest/gtest.h>

#include "assign/evaluator.h"
#include "common/units.h"
#include "mec/parameters.h"
#include "workload/scenario.h"

namespace mecsched::assign {
namespace {

using units::gigahertz;
using units::kilobytes;

TEST(HgosBehaviourTest, PricesTasksAsIfAllDataWereLocal) {
  // Two identical tasks except one needs a large external fetch. A
  // data-aware algorithm would treat them differently; HGOS must place
  // them identically because it folds β into α when pricing.
  std::vector<mec::Device> devices = {
      {0, 0, gigahertz(1.5), mec::k4G, 10.0},
      {1, 0, gigahertz(1.5), mec::k4G, 10.0},
  };
  std::vector<mec::BaseStation> stations = {{0, gigahertz(4.0), 1.0}};
  const mec::Topology topo(devices, stations, mec::SystemParameters{});

  mec::Task local_only;
  local_only.id = {0, 0};
  local_only.local_bytes = kilobytes(1500.0);
  local_only.external_owner = 1;
  local_only.resource = 5.0;  // exceeds device cap 10? no: fits
  local_only.deadline_s = 1e9;

  mec::Task data_shared = local_only;
  data_shared.id = {1, 0};
  data_shared.local_bytes = kilobytes(1000.0);
  data_shared.external_bytes = kilobytes(500.0);  // same total volume
  data_shared.external_owner = 0;

  const std::vector<mec::Task> tasks{local_only, data_shared};
  const HtaInstance inst(topo, tasks);
  const Assignment a = Hgos().assign(inst);
  EXPECT_EQ(a.decisions[0], a.decisions[1]);
}

TEST(HgosBehaviourTest, IgnoresDeadlinesEntirely) {
  // Identical workloads, one with impossible deadlines: HGOS must return
  // the very same placements (it never looks at T_ij).
  workload::ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.num_tasks = 40;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  const auto relaxed = workload::make_scenario(cfg);

  auto strangled = relaxed;
  for (mec::Task& t : strangled.tasks) t.deadline_s = 1e-9;

  const HtaInstance ri(relaxed.topology, relaxed.tasks);
  const HtaInstance si(strangled.topology, strangled.tasks);
  EXPECT_EQ(Hgos().assign(ri).decisions, Hgos().assign(si).decisions);
}

TEST(HgosBehaviourTest, LargestTasksGetFirstPickOfTheEdge) {
  // With station capacity for exactly one task, the single biggest task
  // should win the slot whenever the edge is its cheapest option.
  std::vector<mec::Device> devices = {
      {0, 0, gigahertz(1.0), mec::k4G, 0.0},  // no local capacity
      {1, 0, gigahertz(1.0), mec::k4G, 0.0},
  };
  std::vector<mec::BaseStation> stations = {{0, gigahertz(4.0), 1.0}};
  const mec::Topology topo(devices, stations, mec::SystemParameters{});

  auto task = [](std::size_t user, std::size_t idx, double kb) {
    mec::Task t;
    t.id = {user, idx};
    t.local_bytes = kilobytes(kb);
    t.external_owner = user == 0 ? 1 : 0;
    t.resource = 1.0;
    t.deadline_s = 1e9;
    return t;
  };
  const std::vector<mec::Task> tasks{task(0, 0, 500.0), task(1, 0, 3000.0)};
  const HtaInstance inst(topo, tasks);
  const Assignment a = Hgos().assign(inst);
  EXPECT_EQ(a.decisions[1], Decision::kEdge);   // the big one
  EXPECT_EQ(a.decisions[0], Decision::kCloud);  // the small one spills
}

}  // namespace
}  // namespace mecsched::assign
