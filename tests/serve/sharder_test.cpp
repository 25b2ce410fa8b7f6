#include "serve/sharder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "mec/cost_model.h"
#include "mec/parameters.h"
#include "serve/population.h"

namespace mecsched::serve {
namespace {

// 8 devices round-robin over 4 stations: device i lives at station i % 4.
mec::Topology make_universe(std::size_t num_devices = 8,
                            std::size_t num_stations = 4) {
  std::vector<mec::Device> devices(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i) {
    devices[i].id = i;
    devices[i].base_station = i % num_stations;
    devices[i].cpu_hz = 1.5e9;
    devices[i].radio = mec::kWiFi;
    devices[i].max_resource = 8.0;
  }
  std::vector<mec::BaseStation> stations(num_stations);
  for (std::size_t b = 0; b < num_stations; ++b) {
    stations[b].id = b;
    stations[b].cpu_hz = mec::SystemParameters{}.base_station_hz;
    stations[b].max_resource = 40.0;
  }
  return mec::Topology(std::move(devices), std::move(stations),
                       mec::SystemParameters{});
}

// A task arrival at t = 0; a batch record points at its task, as the
// daemon's records point at their trace events.
Event arrival(std::size_t user, std::size_t owner, double external_bytes) {
  mec::Task t;
  t.id = {user, 0};
  t.local_bytes = 500e3;
  t.external_bytes = external_bytes;
  t.external_owner = owner;
  t.resource = 1.0;
  t.deadline_s = 10.0;
  return Event::arrival(0.0, t);
}

// The record triage writes for arrival `id` (the event e) on its first
// admission, with residual_s of slack left.
BatchTask record(std::size_t id, const Event& e, const Population& pop,
                 double residual_s = 10.0) {
  return make_batch_task(id, e.task, 1, e.time_s, residual_s, pop);
}

// Capacity in use by running work: none.
std::vector<double> no_device_usage(const mec::Topology& topo) {
  return std::vector<double>(topo.num_devices(), 0.0);
}

std::vector<double> no_station_usage(const mec::Topology& topo) {
  return std::vector<double>(topo.num_base_stations(), 0.0);
}

TEST(SharderTest, RejectsZeroShardsAndClampsExcess) {
  const mec::Topology universe = make_universe();
  EXPECT_THROW(Sharder(universe, {0}), ModelError);
  EXPECT_EQ(Sharder(universe, {100}).num_shards(), 4u);
}

TEST(SharderTest, StationBlocksAreContiguousAndMonotone) {
  const mec::Topology universe = make_universe();
  const Sharder sharder(universe, {2});
  EXPECT_EQ(sharder.shard_of_station(0), 0u);
  EXPECT_EQ(sharder.shard_of_station(1), 0u);
  EXPECT_EQ(sharder.shard_of_station(2), 1u);
  EXPECT_EQ(sharder.shard_of_station(3), 1u);
}

TEST(SharderTest, RoutesTaskByIssuersCurrentCell) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {2});
  Population pop(universe);
  // Device 0 lives at station 0 (shard 0) but has migrated to station 3.
  pop.apply(Event::migrate(0.0, 0, 3));

  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const auto problems =
      sharder.build(pop, no_device_usage(universe),
                    no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);  // empty shard 0 omitted
  EXPECT_EQ(problems[0].shard, 1u);
  ASSERT_EQ(problems[0].batch_index.size(), 1u);
  EXPECT_EQ(problems[0].batch_index[0], 0u);
}

TEST(SharderTest, HaloOwnerPricesCrossShardFetchExactly) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {2});
  const Population pop(universe);
  // Issuer 0 sits in shard 0; its external data lives on device 2 whose
  // cell (station 2) is in shard 1, so the owner comes in as a halo copy.
  const Event e = arrival(0, 2, 200e3);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const auto problems =
      sharder.build(pop, no_device_usage(universe),
                    no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  EXPECT_EQ(shard.shard, 0u);
  ASSERT_EQ(shard.halo_devices, 1u);

  // The halo entry is the trailing device, maps back to universe id 2 and
  // carries no schedulable capacity.
  const std::size_t halo = shard.topology.num_devices() - 1;
  EXPECT_EQ(shard.device_global[halo], 2u);
  EXPECT_DOUBLE_EQ(shard.topology.device(halo).max_resource, 0.0);

  // Cost parity: the shard topology prices every placement of the task
  // exactly as the universe does — the halo carries the owner's radio and
  // its cell, so the cross-neighborhood fetch leg is identical.
  const mec::TaskCosts in_universe = mec::CostModel(universe).evaluate(e.task);
  ASSERT_EQ(shard.tasks.size(), 1u);
  const mec::TaskCosts in_shard =
      mec::CostModel(shard.topology).evaluate(shard.tasks[0]);
  for (const mec::Placement placement : mec::kAllPlacements) {
    EXPECT_DOUBLE_EQ(in_shard.latency(placement),
                     in_universe.latency(placement));
    EXPECT_DOUBLE_EQ(in_shard.energy(placement),
                     in_universe.energy(placement));
  }
}

TEST(SharderTest, DarkCellsCarryNoCapacityAndFadedLinksStretchTransfers) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {1});
  Population pop(universe);
  pop.apply(Event::station_down(0.0, 1));
  pop.apply(Event::link_fade(0.0, 0, 0.25));
  pop.apply(Event::link_fade(0.0, 2, 0.5));
  pop.apply(Event::link_fade(0.5, 2, 1.0));  // restored
  // Issuer 0 (station 0) fetches from device 2 (station 2).
  const Event e = arrival(0, 2, 200e3);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const auto problems =
      sharder.build(pop, no_device_usage(universe),
                    no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);
  const mec::Topology& topo = problems[0].topology;
  EXPECT_DOUBLE_EQ(topo.base_station(0).max_resource, 40.0);
  EXPECT_DOUBLE_EQ(topo.base_station(1).max_resource, 0.0);  // dark
  ASSERT_EQ(problems[0].device_global.size(), 2u);
  const mec::RadioProfile& nominal = universe.device(0).radio;
  EXPECT_EQ(topo.device(0).radio.upload_bps, nominal.upload_bps * 0.25);
  EXPECT_EQ(topo.device(0).radio.download_bps, nominal.download_bps * 0.25);
  // A factor of 1 leaves the radio bit for bit as it was.
  EXPECT_EQ(topo.device(1).radio.upload_bps,
            universe.device(2).radio.upload_bps);
  EXPECT_EQ(topo.device(1).radio.download_bps,
            universe.device(2).radio.download_bps);
}

TEST(SharderTest, ResidualCapacitiesOverrideTheUniverseCaps) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {2});
  const Population pop(universe);
  std::vector<double> dev = no_device_usage(universe);
  std::vector<double> sta = no_station_usage(universe);
  dev[0] = 5.5;   // of 8: 2.5 left
  sta[0] = 33.0;  // of 40: 7 left
  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const auto problems = sharder.build(pop, dev, sta, batch);
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];
  // Local device 0 of shard 0 is universe device 0.
  ASSERT_EQ(shard.device_global[0], 0u);
  EXPECT_DOUBLE_EQ(shard.topology.device(0).max_resource, 2.5);
  EXPECT_DOUBLE_EQ(shard.topology.base_station(0).max_resource, 7.0);
}

TEST(SharderTest, DownDevicesAreExcludedFromTheShardTopology) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {2});
  Population pop(universe);
  pop.apply(Event::leave(0.0, 4));  // station 0, shard 0
  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const auto problems =
      sharder.build(pop, no_device_usage(universe),
                    no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);
  for (const std::size_t global : problems[0].device_global) {
    EXPECT_NE(global, 4u);
  }
}

TEST(SharderTest, RosterHoldsOnlyReferencedDevices) {
  // 12 devices over 4 stations; shard 0 (stations 0-1) holds devices
  // 0, 1, 4, 5, 8 and 9, of which 0 and 4 issue nothing and own nothing.
  const mec::Topology universe = make_universe(12, 4);
  Sharder sharder(universe, {2});
  const Population pop(universe);
  const Trace trace({arrival(9, 6, 200e3),  // owner 6: station 2, halo
                     arrival(5, 5, 0.0),
                     arrival(1, 8, 200e3)});  // owner 8: in-shard
  const std::vector<BatchTask> batch{record(0, trace.events()[0], pop),
                                     record(1, trace.events()[1], pop),
                                     record(2, trace.events()[2], pop)};
  const auto problems = sharder.build(pop, no_device_usage(universe),
                                      no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);
  const ShardProblem& shard = problems[0];

  // Core devices in ascending universe id, then the halo owner.
  EXPECT_EQ(shard.device_global, (std::vector<std::size_t>{1, 5, 8, 9, 6}));
  EXPECT_EQ(shard.halo_devices, 1u);
  EXPECT_EQ(shard.topology.num_devices(), 5u);
  for (std::size_t local = 0; local < 4; ++local) {
    EXPECT_DOUBLE_EQ(shard.topology.device(local).max_resource, 8.0);
  }
  EXPECT_DOUBLE_EQ(shard.topology.device(4).max_resource, 0.0);

  // Tasks keep batch order and point at their devices' local ids.
  ASSERT_EQ(shard.tasks.size(), 3u);
  EXPECT_EQ(shard.tasks[0].id.user, 3u);
  EXPECT_EQ(shard.tasks[0].external_owner, 4u);
  EXPECT_EQ(shard.tasks[1].id.user, 1u);
  EXPECT_EQ(shard.tasks[2].id.user, 0u);
  EXPECT_EQ(shard.tasks[2].external_owner, 2u);

  // Every task still prices exactly as in the universe.
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const mec::TaskCosts in_universe =
        mec::CostModel(universe).evaluate(*batch[t].task);
    const mec::TaskCosts in_shard =
        mec::CostModel(shard.topology).evaluate(shard.tasks[t]);
    for (const mec::Placement placement : mec::kAllPlacements) {
      EXPECT_DOUBLE_EQ(in_shard.latency(placement),
                       in_universe.latency(placement));
      EXPECT_DOUBLE_EQ(in_shard.energy(placement),
                       in_universe.energy(placement));
    }
  }
}

TEST(SharderTest, DeadlineOverrideReplacesTheIssuedDeadline) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {2});
  const Population pop(universe);
  const Event e = arrival(0, 0, 0.0);  // issued deadline 10s
  const std::vector<BatchTask> batch{record(0, e, pop, 3.25)};
  const auto problems =
      sharder.build(pop, no_device_usage(universe),
                    no_station_usage(universe), batch);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_DOUBLE_EQ(problems[0].tasks[0].deadline_s, 3.25);
}

// A build that fails a precondition (here: a data owner that is away)
// throws before it touches the roster scratch, so the next build on the
// same sharder sees a clean bitmap.
TEST(SharderTest, FailedBuildLeavesTheRosterScratchClean) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe, {1});
  Population pop(universe);
  pop.apply(Event::leave(0.0, 6));
  const Trace trace({arrival(1, 5, 200e3), arrival(3, 6, 200e3),
                     arrival(7, 7, 0.0)});
  EXPECT_THROW(sharder.build(pop, no_device_usage(universe),
                             no_station_usage(universe),
                             {record(0, trace.events()[0], pop),
                              record(1, trace.events()[1], pop)}),
               ModelError);
  const auto problems =
      sharder.build(pop, no_device_usage(universe), no_station_usage(universe),
                    {record(2, trace.events()[2], pop)});
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].device_global, (std::vector<std::size_t>{7}));
  EXPECT_EQ(problems[0].tasks[0].id.user, 0u);
}

// The roster as a sort builds it: every (key, slot) reference of a shard's
// tasks — key the universe id, offset by num_devices for an owner outside
// the shard; slot 2 * task + is_owner — sorted, so the distinct keys in
// order are the roster and each reference's rank is its local id.
struct SortedRoster {
  std::size_t shard = 0;
  std::vector<std::size_t> device_global;
  std::size_t halo_devices = 0;
  std::vector<std::size_t> users;   // local id per task
  std::vector<std::size_t> owners;  // local id per task, 0 without data
  std::vector<std::size_t> batch_index;
};

std::vector<SortedRoster> sorted_rosters(
    const Sharder& sharder, const Population& pop, std::size_t nd,
    const std::vector<BatchTask>& batch) {
  const auto shard_of = [&](std::size_t device) {
    return sharder.shard_of_station(pop.station(device));
  };
  std::vector<SortedRoster> out;
  for (std::size_t s = 0; s < sharder.num_shards(); ++s) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (shard_of(batch[i].task->id.user) == s) members.push_back(i);
    }
    if (members.empty()) continue;
    SortedRoster r;
    r.shard = s;
    std::vector<std::pair<std::size_t, std::size_t>> refs;
    for (std::size_t k = 0; k < members.size(); ++k) {
      const mec::Task& t = *batch[members[k]].task;
      r.batch_index.push_back(members[k]);
      refs.emplace_back(t.id.user, 2 * k);
      if (t.external_bytes > 0.0) {
        refs.emplace_back(
            t.external_owner + (shard_of(t.external_owner) == s ? 0 : nd),
            2 * k + 1);
      }
    }
    std::sort(refs.begin(), refs.end());
    r.users.assign(members.size(), 0);
    r.owners.assign(members.size(), 0);
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const auto [key, slot] = refs[i];
      if (i == 0 || key != refs[i - 1].first) {
        r.device_global.push_back(key < nd ? key : key - nd);
        if (key >= nd) ++r.halo_devices;
      }
      (slot % 2 == 0 ? r.users : r.owners)[slot / 2] =
          r.device_global.size() - 1;
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(SharderTest, RosterMatchesASortBuiltRosterOnRandomBatches) {
  // 600 devices over 80 stations; a fifth of them migrate to a random
  // cell, so a device's shard is not its home shard.
  const std::size_t nd = 600;
  const mec::Topology universe = make_universe(nd, 80);
  Population pop(universe);
  Rng rng(41);
  for (std::size_t g = 0; g < nd; ++g) {
    if (rng.bernoulli(0.2)) {
      pop.apply(Event::migrate(
          0.0, g, static_cast<std::size_t>(rng.uniform_int(0, 79))));
    }
  }
  const auto device = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, nd - 1));
  };
  for (const std::size_t shards : {1u, 4u, 16u, 64u}) {
    Sharder sharder(universe, {shards});
    // Several epochs through one sharder: its scratch must come back
    // clean after every build.
    for (int epoch = 0; epoch < 6; ++epoch) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
      std::vector<Event> events;
      events.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t user = device();
        const double roll = rng.uniform(0.0, 1.0);
        // No data, own data, or another device's (often in another shard).
        events.push_back(roll < 0.2   ? arrival(user, device(), 0.0)
                         : roll < 0.3 ? arrival(user, user, 100e3)
                                      : arrival(user, device(), 100e3));
      }
      std::vector<BatchTask> batch;
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(record(i, events[i], pop));
      }
      const auto problems = sharder.build(
          pop, no_device_usage(universe), no_station_usage(universe), batch);
      const std::vector<SortedRoster> want =
          sorted_rosters(sharder, pop, nd, batch);
      ASSERT_EQ(problems.size(), want.size()) << shards << " shards";
      for (std::size_t p = 0; p < want.size(); ++p) {
        const ShardProblem& got = problems[p];
        SCOPED_TRACE(::testing::Message() << shards << " shards, epoch "
                                          << epoch << ", shard " << got.shard);
        EXPECT_EQ(got.shard, want[p].shard);
        EXPECT_EQ(got.device_global, want[p].device_global);
        EXPECT_EQ(got.halo_devices, want[p].halo_devices);
        EXPECT_EQ(got.batch_index, want[p].batch_index);
        ASSERT_EQ(got.tasks.size(), want[p].users.size());
        for (std::size_t k = 0; k < got.tasks.size(); ++k) {
          EXPECT_EQ(got.tasks[k].id.user, want[p].users[k]) << "task " << k;
          EXPECT_EQ(got.tasks[k].external_owner, want[p].owners[k])
              << "task " << k;
        }
      }
    }
  }
}

// Every field of a shard device or station, for exact comparison.
void expect_same_device(const mec::Device& got, const mec::Device& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.base_station, want.base_station);
  EXPECT_EQ(got.cpu_hz, want.cpu_hz);
  EXPECT_EQ(got.radio.download_bps, want.radio.download_bps);
  EXPECT_EQ(got.radio.upload_bps, want.radio.upload_bps);
  EXPECT_EQ(got.radio.tx_power_w, want.radio.tx_power_w);
  EXPECT_EQ(got.radio.rx_power_w, want.radio.rx_power_w);
  EXPECT_EQ(got.max_resource, want.max_resource);
}

void expect_same_station(const mec::BaseStation& got,
                         const mec::BaseStation& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.cpu_hz, want.cpu_hz);
  EXPECT_EQ(got.max_resource, want.max_resource);
}

// Building from the capacity in use prices every core roster device at
// max(0, cap - used) and every up core cell at max(0, cap - used), as the
// residual vectors the epoch loop once computed did; halo entries and dark
// cells carry nothing. The reference prices a sort-built roster that way.
TEST(SharderTest, UsageBuildMatchesResidualPricingOnRandomBatches) {
  const std::size_t nd = 500;
  const std::size_t ns = 70;
  Rng rng(57);
  std::vector<mec::Device> devices(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    devices[i].id = i;
    devices[i].base_station = i % ns;
    devices[i].cpu_hz = rng.uniform(0.5e9, 2.5e9);
    devices[i].radio = rng.bernoulli(0.5) ? mec::kWiFi : mec::k4G;
    devices[i].max_resource = rng.uniform(2.0, 12.0);
  }
  std::vector<mec::BaseStation> stations(ns);
  for (std::size_t b = 0; b < ns; ++b) {
    stations[b].id = b;
    stations[b].cpu_hz = mec::SystemParameters{}.base_station_hz;
    stations[b].max_resource = rng.uniform(20.0, 60.0);
  }
  const mec::Topology universe(std::move(devices), std::move(stations),
                               mec::SystemParameters{});
  Population pop(universe);
  const auto device = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, nd - 1));
  };
  const auto station = [&] {
    return static_cast<std::size_t>(rng.uniform_int(0, ns - 1));
  };
  for (const std::size_t shards : {1u, 4u, 16u, 64u}) {
    Sharder sharder(universe, {shards});
    for (int epoch = 0; epoch < 5; ++epoch) {
      // The population moves between epochs: migrations, fades and cells
      // going dark or coming back.
      for (int k = 0; k < 40; ++k) pop.apply(Event::migrate(0.0, device(), station()));
      for (int k = 0; k < 20; ++k) {
        pop.apply(Event::link_fade(0.0, device(), rng.uniform(0.1, 1.0)));
      }
      pop.apply(Event::station_down(0.0, station()));
      pop.apply(Event::station_up(0.0, station()));
      // Usage: most devices idle, some partly used, some past their cap
      // (the residual clamps at 0); the same for cells.
      std::vector<double> dev_used(nd, 0.0);
      for (std::size_t g = 0; g < nd; ++g) {
        const double u = rng.uniform(0.0, 1.0);
        if (u < 0.3) {
          dev_used[g] = rng.uniform(0.0, 8.0);
        } else if (u < 0.4) {
          dev_used[g] = universe.device(g).max_resource + rng.uniform(0.0, 3.0);
        }
      }
      std::vector<double> st_used(ns, 0.0);
      for (std::size_t b = 0; b < ns; ++b) {
        st_used[b] = rng.bernoulli(0.1) ? rng.uniform(60.0, 80.0)
                                        : rng.uniform(0.0, 40.0);
      }
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
      std::vector<Event> events;
      events.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t user = device();
        const double roll = rng.uniform(0.0, 1.0);
        events.push_back(roll < 0.2   ? arrival(user, device(), 0.0)
                         : roll < 0.3 ? arrival(user, user, 100e3)
                                      : arrival(user, device(), 100e3));
      }
      std::vector<double> deadlines(n);
      for (double& d : deadlines) d = rng.uniform(0.1, 10.0);
      std::vector<BatchTask> batch;
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(record(i, events[i], pop, deadlines[i]));
      }

      const auto problems = sharder.build(pop, dev_used, st_used, batch);
      const std::vector<SortedRoster> want =
          sorted_rosters(sharder, pop, nd, batch);
      ASSERT_EQ(problems.size(), want.size()) << shards << " shards";
      for (std::size_t p = 0; p < want.size(); ++p) {
        const ShardProblem& got = problems[p];
        const SortedRoster& r = want[p];
        SCOPED_TRACE(::testing::Message() << shards << " shards, epoch "
                                          << epoch << ", shard " << got.shard);
        ASSERT_EQ(got.device_global, r.device_global);
        EXPECT_EQ(got.halo_devices, r.halo_devices);
        EXPECT_EQ(got.batch_index, r.batch_index);

        // Cells: the shard's block, then the halo owners' cells ascending.
        std::vector<std::size_t> cells;
        for (std::size_t b = 0; b < ns; ++b) {
          if (sharder.shard_of_station(b) == r.shard) cells.push_back(b);
        }
        const std::size_t core_cells = cells.size();
        std::vector<std::size_t> halo_cells;
        const std::size_t core = r.device_global.size() - r.halo_devices;
        for (std::size_t l = core; l < r.device_global.size(); ++l) {
          halo_cells.push_back(pop.station(r.device_global[l]));
        }
        std::sort(halo_cells.begin(), halo_cells.end());
        halo_cells.erase(std::unique(halo_cells.begin(), halo_cells.end()),
                         halo_cells.end());
        cells.insert(cells.end(), halo_cells.begin(), halo_cells.end());
        const auto local_cell = [&](std::size_t b) {
          return static_cast<std::size_t>(
              std::find(cells.begin(), cells.end(), b) - cells.begin());
        };

        ASSERT_EQ(got.topology.num_base_stations(), cells.size());
        for (std::size_t l = 0; l < cells.size(); ++l) {
          mec::BaseStation bs = universe.base_station(cells[l]);
          bs.id = l;
          const double residual = bs.max_resource - st_used[cells[l]];
          bs.max_resource = l < core_cells && pop.station_up(cells[l])
                                ? std::max(0.0, residual)
                                : 0.0;
          expect_same_station(got.topology.base_station(l), bs);
        }
        ASSERT_EQ(got.topology.num_devices(), r.device_global.size());
        for (std::size_t l = 0; l < r.device_global.size(); ++l) {
          const std::size_t g = r.device_global[l];
          mec::Device d = pop.device(g);
          d.id = l;
          d.base_station = local_cell(d.base_station);
          const double residual =
              universe.device(g).max_resource - dev_used[g];
          d.max_resource = l < core ? std::max(0.0, residual) : 0.0;
          expect_same_device(got.topology.device(l), d);
        }
        ASSERT_EQ(got.tasks.size(), r.users.size());
        for (std::size_t k = 0; k < got.tasks.size(); ++k) {
          mec::Task t = events[r.batch_index[k]].task;
          t.id.user = r.users[k];
          t.external_owner = r.owners[k];
          t.deadline_s = deadlines[r.batch_index[k]];
          EXPECT_EQ(got.tasks[k].id.user, t.id.user) << "task " << k;
          EXPECT_EQ(got.tasks[k].id.index, t.id.index) << "task " << k;
          EXPECT_EQ(got.tasks[k].external_owner, t.external_owner);
          EXPECT_EQ(got.tasks[k].deadline_s, t.deadline_s);
          EXPECT_EQ(got.tasks[k].resource, t.resource);
          EXPECT_EQ(got.tasks[k].external_bytes, t.external_bytes);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mecsched::serve
