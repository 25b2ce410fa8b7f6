// Differential test of CostModel::evaluate, the one pricing routine that
// prices each shared transfer leg once, against the per-placement
// routines it replaced, kept below as the reference: each of those
// re-derived the external fetch, the α uplink and the result downlink
// from the primitive transfer costs. Every double must match bit for bit
// on random topologies, for every shape of task the model branches on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mec/cost_model.h"
#include "mec/parameters.h"
#include "mec/task.h"
#include "mec/topology.h"

namespace mecsched::mec {
namespace {

// ---- The reference: one routine per placement, each re-pricing the legs
// it shares with the others.
namespace ref {

struct ExternalFetch {
  double upload_s = 0.0;
  double owner_energy = 0.0;
};

ExternalFetch external_fetch(const CostModel& m, const Task& task) {
  ExternalFetch f;
  const double beta = task.external_bytes;
  if (beta <= 0.0 || task.external_owner == task.id.user) return f;
  f.upload_s = m.upload_seconds(task.external_owner, beta);
  f.owner_energy = m.upload_energy(task.external_owner, beta);
  return f;
}

CostEntry local_cost(const Topology& topo, const CostModel& m,
                     const Task& task) {
  const Device& dev = topo.device(task.id.user);
  const SystemParameters& p = topo.params();
  CostEntry e;
  e.compute_s = task.cycles() / dev.cpu_hz;
  e.energy_j = p.kappa * task.cycles() * dev.cpu_hz * dev.cpu_hz;
  const double beta = task.external_bytes;
  const ExternalFetch fetch = external_fetch(m, task);
  if (fetch.upload_s > 0.0) {
    e.transfer_s = fetch.upload_s + m.download_seconds(task.id.user, beta);
    e.energy_j += fetch.owner_energy + m.download_energy(task.id.user, beta);
    if (!topo.same_cluster(task.external_owner, task.id.user)) {
      e.transfer_s += m.bs_to_bs_seconds(beta);
      e.energy_j += m.bs_to_bs_energy(beta);
    }
  }
  return e;
}

CostEntry edge_cost(const Topology& topo, const CostModel& m,
                    const Task& task) {
  const BaseStation& bs =
      topo.base_station(topo.device(task.id.user).base_station);
  CostEntry e;
  e.compute_s = task.cycles() / bs.cpu_hz;
  const double alpha = task.local_bytes;
  const double beta = task.external_bytes;
  const ExternalFetch fetch = external_fetch(m, task);
  double external_path_s = fetch.upload_s;
  double energy = fetch.owner_energy;
  if (fetch.upload_s > 0.0 &&
      !topo.same_cluster(task.external_owner, task.id.user)) {
    external_path_s += m.bs_to_bs_seconds(beta);
    energy += m.bs_to_bs_energy(beta);
  }
  const double local_path_s =
      alpha > 0.0 ? m.upload_seconds(task.id.user, alpha) : 0.0;
  energy += alpha > 0.0 ? m.upload_energy(task.id.user, alpha) : 0.0;
  const double result = task.result_bytes();
  e.transfer_s = std::max(external_path_s, local_path_s) +
                 m.download_seconds(task.id.user, result);
  e.energy_j = energy + m.download_energy(task.id.user, result);
  return e;
}

CostEntry cloud_cost(const Topology& topo, const CostModel& m,
                     const Task& task) {
  const SystemParameters& p = topo.params();
  CostEntry e;
  e.compute_s = task.cycles() / p.cloud_hz;
  const double alpha = task.local_bytes;
  const double beta = task.external_bytes;
  const ExternalFetch fetch = external_fetch(m, task);
  const double local_path_s =
      alpha > 0.0 ? m.upload_seconds(task.id.user, alpha) : 0.0;
  const double energy =
      fetch.owner_energy +
      (alpha > 0.0 ? m.upload_energy(task.id.user, alpha) : 0.0);
  const double result = task.result_bytes();
  const double wan_bytes = alpha + beta + result;
  e.transfer_s = std::max(fetch.upload_s, local_path_s) +
                 m.download_seconds(task.id.user, result) +
                 m.bs_to_cloud_seconds(wan_bytes);
  e.energy_j = energy + m.download_energy(task.id.user, result) +
               m.bs_to_cloud_energy(wan_bytes);
  return e;
}

}  // namespace ref

// Devices, stations, radios and system constants all drawn at random, so
// that no two legs share a rate or a power by accident.
Topology random_topology(Rng& rng) {
  const auto num_stations = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto num_devices = static_cast<std::size_t>(rng.uniform_int(4, 16));
  std::vector<BaseStation> stations;
  for (std::size_t b = 0; b < num_stations; ++b) {
    stations.push_back({b, rng.uniform(2e9, 8e9), 100.0});
  }
  std::vector<Device> devices;
  for (std::size_t i = 0; i < num_devices; ++i) {
    // The first two devices share station 0 and the third sits on station
    // 1, so every topology has a same-cluster and a cross-cluster pair.
    const auto last = static_cast<std::int64_t>(num_stations) - 1;
    const std::size_t b =
        i < 3 ? i / 2 : static_cast<std::size_t>(rng.uniform_int(0, last));
    const RadioProfile radio{rng.uniform(1e6, 4e7), rng.uniform(5e5, 2e7),
                             rng.uniform(0.5, 9.0), rng.uniform(0.2, 3.0)};
    devices.push_back({i, b, rng.uniform(5e8, 3e9), radio, 10.0});
  }
  SystemParameters p;
  p.kappa = rng.uniform(0.5e-27, 2e-27);
  p.cloud_hz = rng.uniform(1e9, 5e9);
  p.bs_to_bs_latency_s = rng.uniform(1e-3, 5e-2);
  p.bs_to_bs_rate_bps = rng.uniform(1e8, 1e10);
  p.bs_to_bs_power_w = rng.uniform(1.0, 10.0);
  p.bs_to_cloud_latency_s = rng.uniform(5e-2, 0.5);
  p.bs_to_cloud_rate_bps = rng.uniform(1e7, 1e9);
  p.bs_to_cloud_power_w = rng.uniform(5.0, 40.0);
  return Topology(std::move(devices), std::move(stations), p);
}

// Task shapes: each one the model branches on.
enum class Shape {
  kCrossClusterOwner,
  kSameClusterOwner,
  kIssuerOwnedExternal,
  kNoLocalData,
  kNoExternalData,
  kZeroByteConstantResult,
};

Task random_task(Rng& rng, const Topology& topo, Shape shape) {
  // Issuer 0 or 1 (station 0); devices 0 and 1 share it, device 2 is on
  // station 1.
  Task t;
  t.id = {static_cast<std::size_t>(rng.uniform_int(0, 1)), 0};
  t.local_bytes = rng.uniform(1e3, 5e6);
  t.external_bytes = rng.uniform(1e3, 5e6);
  t.external_owner = 2;
  t.cycles_per_byte = rng.uniform(100.0, 1000.0);
  t.result_ratio = rng.uniform(0.05, 0.5);
  if (rng.bernoulli(0.3)) {
    t.result_kind = ResultSizeKind::kConstant;
    t.result_const_bytes = rng.uniform(0.0, 1e5);
  }
  switch (shape) {
    case Shape::kCrossClusterOwner: {
      // Any device off station 0 (device 2 is one).
      const auto last = static_cast<std::int64_t>(topo.num_devices()) - 1;
      do {
        t.external_owner = static_cast<std::size_t>(rng.uniform_int(2, last));
      } while (topo.same_cluster(t.external_owner, t.id.user));
      break;
    }
    case Shape::kSameClusterOwner:
      t.external_owner = 1 - t.id.user;
      break;
    case Shape::kIssuerOwnedExternal:
      t.external_owner = t.id.user;
      break;
    case Shape::kNoLocalData:
      t.local_bytes = 0.0;
      t.external_owner = rng.bernoulli(0.5) ? 1 - t.id.user : 2;
      break;
    case Shape::kNoExternalData:
      t.external_bytes = 0.0;
      t.external_owner = rng.bernoulli(0.5) ? t.id.user : 2;
      break;
    case Shape::kZeroByteConstantResult:
      t.local_bytes = 0.0;
      t.external_bytes = 0.0;
      t.result_kind = ResultSizeKind::kConstant;
      t.result_const_bytes = 0.0;
      break;
  }
  return t;
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

void expect_same_entry(const CostEntry& got, const CostEntry& want,
                       const std::string& where) {
  expect_bits(got.compute_s, want.compute_s, where + " compute_s");
  expect_bits(got.transfer_s, want.transfer_s, where + " transfer_s");
  expect_bits(got.energy_j, want.energy_j, where + " energy_j");
}

// 40 random topologies, 25 tasks of the shape on each.
void expect_matches_reference(Shape shape) {
  Rng rng(9100 + static_cast<std::uint64_t>(shape));
  for (int k = 0; k < 40; ++k) {
    const Topology topo = random_topology(rng);
    const CostModel model(topo);
    for (int j = 0; j < 25; ++j) {
      const Task t = random_task(rng, topo, shape);
      SCOPED_TRACE("topology " + std::to_string(k) + ", task " +
                   std::to_string(j));
      const TaskCosts got = model.evaluate(t);
      expect_same_entry(got.at(Placement::kLocal),
                        ref::local_cost(topo, model, t), "local");
      expect_same_entry(got.at(Placement::kEdge),
                        ref::edge_cost(topo, model, t), "edge");
      expect_same_entry(got.at(Placement::kCloud),
                        ref::cloud_cost(topo, model, t), "cloud");
      for (const Placement p : kAllPlacements) {
        expect_same_entry(model.evaluate(t, p), got.at(p),
                          "evaluate(task, " + to_string(p) + ")");
      }
    }
  }
}

TEST(CostKernelDiffTest, CrossClusterOwner) {
  expect_matches_reference(Shape::kCrossClusterOwner);
}

TEST(CostKernelDiffTest, SameClusterOwner) {
  expect_matches_reference(Shape::kSameClusterOwner);
}

TEST(CostKernelDiffTest, IssuerOwnedExternalData) {
  expect_matches_reference(Shape::kIssuerOwnedExternal);
}

TEST(CostKernelDiffTest, NoLocalData) {
  expect_matches_reference(Shape::kNoLocalData);
}

TEST(CostKernelDiffTest, NoExternalData) {
  expect_matches_reference(Shape::kNoExternalData);
}

TEST(CostKernelDiffTest, ZeroByteConstantResultCrossesNoWan) {
  expect_matches_reference(Shape::kZeroByteConstantResult);
  // With no bytes to move, the WAN leg adds no latency.
  Rng rng(9200);
  const Topology topo = random_topology(rng);
  const Task t = random_task(rng, topo, Shape::kZeroByteConstantResult);
  const CostEntry cloud = CostModel(topo).evaluate(t, Placement::kCloud);
  EXPECT_EQ(cloud.transfer_s, 0.0);
  EXPECT_EQ(cloud.energy_j, 0.0);
}

TEST(CostKernelDiffTest, UnknownPlacementThrows) {
  Rng rng(9300);
  const Topology topo = random_topology(rng);
  const Task t = random_task(rng, topo, Shape::kSameClusterOwner);
  EXPECT_THROW(CostModel(topo).evaluate(t, static_cast<Placement>(3)),
               ModelError);
  EXPECT_THROW(CostModel(topo).evaluate(t, static_cast<Placement>(-1)),
               ModelError);
}

}  // namespace
}  // namespace mecsched::mec
