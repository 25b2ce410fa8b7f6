#include "mec/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"

namespace mecsched::mec {
namespace {

using units::gigahertz;

std::vector<Device> three_devices() {
  return {
      {0, 0, gigahertz(1.0), k4G, 5.0},
      {1, 0, gigahertz(2.0), kWiFi, 5.0},
      {2, 1, gigahertz(1.5), k4G, 5.0},
  };
}

std::vector<BaseStation> two_stations() {
  return {{0, gigahertz(4.0), 50.0}, {1, gigahertz(4.0), 50.0}};
}

TEST(TopologyTest, BuildsClusters) {
  const Topology t(three_devices(), two_stations(), SystemParameters{});
  EXPECT_EQ(t.num_devices(), 3u);
  EXPECT_EQ(t.num_base_stations(), 2u);
  EXPECT_EQ(t.cluster(0).size(), 2u);
  EXPECT_EQ(t.cluster(1).size(), 1u);
  EXPECT_EQ(t.cluster(1)[0], 2u);
}

TEST(TopologyTest, SameClusterQueries) {
  const Topology t(three_devices(), two_stations(), SystemParameters{});
  EXPECT_TRUE(t.same_cluster(0, 1));
  EXPECT_FALSE(t.same_cluster(0, 2));
  EXPECT_TRUE(t.same_cluster(2, 2));
}

// The ModelError text `call` throws, or "" if it does not throw.
template <typename F>
std::string thrown_message(F call) {
  try {
    call();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

// A failed range check reads "precondition failed: (<check>) at
// .../topology.cpp:<line> — <detail>".
void expect_range_error(const std::string& what, const std::string& check,
                        const std::string& detail) {
  EXPECT_EQ(what.rfind("precondition failed: (" + check + ") at ", 0), 0u)
      << what;
  EXPECT_NE(what.find("topology.cpp:"), std::string::npos) << what;
  const std::string tail = " — " + detail;
  ASSERT_GE(what.size(), tail.size()) << what;
  EXPECT_EQ(what.substr(what.size() - tail.size()), tail) << what;
}

TEST(TopologyTest, AccessorsValidateIndices) {
  const Topology t(three_devices(), two_stations(), SystemParameters{});
  EXPECT_THROW(t.device(3), ModelError);
  EXPECT_THROW(t.base_station(2), ModelError);
  EXPECT_THROW(t.cluster(2), ModelError);
  EXPECT_THROW(t.same_cluster(0, 3), ModelError);
  EXPECT_THROW(t.same_cluster(7, 0), ModelError);
  EXPECT_EQ(t.device(2).base_station, 1u);
  EXPECT_EQ(t.base_station(1).id, 1u);

  // The inline accessors keep the out-of-line check's message.
  expect_range_error(thrown_message([&] { t.device(3); }),
                     "i < devices_.size()",
                     "device index 3 out of range (3 devices)");
  expect_range_error(thrown_message([&] { t.base_station(2); }),
                     "b < stations_.size()",
                     "base station index 2 out of range (2 stations)");
  expect_range_error(thrown_message([&] { t.same_cluster(1, 9); }),
                     "i < devices_.size()",
                     "device index 9 out of range (3 devices)");
  expect_range_error(thrown_message([&] { t.cluster(5); }),
                     "b < stations_.size()",
                     "base station index 5 out of range (2 stations)");
}

TEST(TopologyTest, RejectsNonDenseDeviceIds) {
  auto devs = three_devices();
  devs[1].id = 7;
  EXPECT_THROW(Topology(devs, two_stations(), SystemParameters{}), ModelError);
}

TEST(TopologyTest, RejectsUnknownBaseStation) {
  auto devs = three_devices();
  devs[0].base_station = 9;
  EXPECT_THROW(Topology(devs, two_stations(), SystemParameters{}), ModelError);
}

TEST(TopologyTest, RejectsZeroFrequency) {
  auto devs = three_devices();
  devs[0].cpu_hz = 0.0;
  EXPECT_THROW(Topology(devs, two_stations(), SystemParameters{}), ModelError);
}

TEST(TopologyTest, RejectsEmptyStations) {
  EXPECT_THROW(Topology({}, {}, SystemParameters{}), ModelError);
}

TEST(TopologyTest, EmptyDeviceListIsValid) {
  const Topology t({}, two_stations(), SystemParameters{});
  EXPECT_EQ(t.num_devices(), 0u);
  EXPECT_TRUE(t.cluster(0).empty());
}

// Each cluster is the run of its station in the device ids stable-sorted
// by station, stations with no device included.
TEST(TopologyTest, ClustersMatchASortByStation) {
  Rng rng(41);
  std::size_t empty_clusters = 0;
  for (int round = 0; round < 60; ++round) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 80));
    std::vector<Device> devices(n);
    for (std::size_t i = 0; i < n; ++i) {
      devices[i] = {i,
                    static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<std::int64_t>(k) - 1)),
                    gigahertz(1.0), kWiFi, 5.0};
    }
    std::vector<BaseStation> stations(k);
    for (std::size_t b = 0; b < k; ++b) stations[b] = {b, gigahertz(4.0), 50.0};
    const Topology t(devices, stations, SystemParameters{});

    std::vector<std::size_t> ids(n);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    std::stable_sort(ids.begin(), ids.end(), [&](std::size_t x, std::size_t y) {
      return devices[x].base_station < devices[y].base_station;
    });
    auto run = ids.begin();
    for (std::size_t b = 0; b < k; ++b) {
      const auto end = std::find_if(run, ids.end(), [&](std::size_t i) {
        return devices[i].base_station != b;
      });
      const std::vector<std::size_t> expected(run, end);
      const std::span<const std::size_t> got = t.cluster(b);
      EXPECT_EQ(std::vector<std::size_t>(got.begin(), got.end()), expected)
          << "round " << round << ", station " << b;
      if (expected.empty()) ++empty_clusters;
      run = end;
    }
  }
  EXPECT_GT(empty_clusters, 0u);
}

}  // namespace
}  // namespace mecsched::mec
