#include "assign/partial.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "mec/parameters.h"
#include "workload/scenario.h"

namespace mecsched::assign {
namespace {

using units::gigahertz;

mec::Topology two_device_topology(double device_hz) {
  std::vector<mec::Device> devices = {
      {0, 0, device_hz, mec::k4G, 10.0},
      {1, 0, gigahertz(2.0), mec::kWiFi, 10.0},
  };
  std::vector<mec::BaseStation> stations = {{0, gigahertz(4.0), 100.0}};
  return mec::Topology(std::move(devices), std::move(stations),
                       mec::SystemParameters{});
}

mec::Task big_task(double alpha_kb, double beta_kb) {
  mec::Task t;
  t.id = {0, 0};
  t.local_bytes = units::kilobytes(alpha_kb);
  t.external_bytes = units::kilobytes(beta_kb);
  t.external_owner = 1;
  t.deadline_s = 1e9;
  return t;
}

TEST(PartialTest, ThetaIsAFraction) {
  const auto topo = two_device_topology(gigahertz(1.5));
  const std::vector<mec::Task> tasks{big_task(2000, 500)};
  const HtaInstance inst(topo, tasks);
  const PartialDecision d = optimal_split(inst, 0);
  EXPECT_GE(d.theta, 0.0);
  EXPECT_LE(d.theta, 1.0);
  EXPECT_GT(d.latency_s, 0.0);
  EXPECT_GT(d.energy_j, 0.0);
}

TEST(PartialTest, NeverSlowerThanEitherPureStrategy) {
  // θ = 1 approximates pure-local (device processes α; BS still gets β) and
  // θ = 0 is pure-edge; the optimum can beat both.
  const auto topo = two_device_topology(gigahertz(1.0));
  const std::vector<mec::Task> tasks{big_task(3000, 600)};
  const HtaInstance inst(topo, tasks);
  const PartialDecision d = optimal_split(inst, 0);
  // Reconstruct the two corners by intersecting with the same model.
  const HtaInstance& i = inst;
  (void)i;
  // Corners: evaluate the objective at θ=0 and θ=1 via the public API by
  // comparing against the decision's latency (θ* minimizes the max).
  // Any fixed θ must be at least as slow.
  // θ=0 corner:
  // t_edge(0) includes the whole α upload, so it upper-bounds d.latency_s.
  // We can't call the internals directly; assert optimality via resampling:
  for (double theta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // re-derive the two sides exactly as partial.cpp does
    const mec::CostModel cost(topo);
    const mec::Task& task = inst.task(0);
    const double alpha = task.local_bytes;
    const double beta = task.external_bytes;
    const double dev_side =
        theta * alpha * task.cycles_per_byte / topo.device(0).cpu_hz;
    const double fetch = cost.upload_seconds(1, beta);
    const double off = (1.0 - theta) * alpha;
    const double edge_side =
        std::max(off > 0 ? cost.upload_seconds(0, off) : 0.0, fetch) +
        (off + beta) * task.cycles_per_byte / topo.base_station(0).cpu_hz +
        cost.download_seconds(0, task.result_bytes());
    EXPECT_LE(d.latency_s, std::max(dev_side, edge_side) + 1e-9)
        << "theta=" << theta;
  }
}

TEST(PartialTest, SlowDeviceOffloadsAlmostEverything) {
  const auto topo = two_device_topology(gigahertz(1.0) * 0.05);  // 50 MHz
  const std::vector<mec::Task> tasks{big_task(3000, 0)};
  const HtaInstance inst(topo, tasks);
  const PartialDecision d = optimal_split(inst, 0);
  EXPECT_LT(d.theta, 0.2);
}

TEST(PartialTest, FastDeviceKeepsEverything) {
  const auto topo = two_device_topology(gigahertz(1.0) * 50.0);  // 50 GHz
  const std::vector<mec::Task> tasks{big_task(3000, 0)};
  const HtaInstance inst(topo, tasks);
  const PartialDecision d = optimal_split(inst, 0);
  EXPECT_GT(d.theta, 0.95);
}

TEST(PartialTest, FluidBoundBeatsBinaryLatencyOnAverage) {
  // Integrality costs latency: the fluid split should be at least as fast
  // as the better of pure local/edge for every task.
  workload::ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.num_tasks = 40;
  cfg.num_devices = 12;
  cfg.num_base_stations = 3;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const PartialOffloadResult r = run_partial(inst);
  ASSERT_EQ(r.decisions.size(), inst.num_tasks());
  std::size_t strictly_faster = 0;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    const double binary_best =
        std::min(inst.latency(t, mec::Placement::kLocal),
                 inst.latency(t, mec::Placement::kEdge));
    EXPECT_LE(r.decisions[t].latency_s, binary_best + 1e-6) << "task " << t;
    if (r.decisions[t].latency_s < binary_best - 1e-6) ++strictly_faster;
  }
  EXPECT_GT(strictly_faster, 0u);  // splitting actually helps somewhere
}

TEST(PartialTest, EmptyInstance) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = 0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const PartialOffloadResult r = run_partial(inst);
  EXPECT_TRUE(r.decisions.empty());
  EXPECT_DOUBLE_EQ(r.mean_latency_s, 0.0);
}

}  // namespace
}  // namespace mecsched::assign
