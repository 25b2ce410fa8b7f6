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

// The issuer sits in its current cell, so LP-HTA solves the task in that
// cell's cluster.
TEST(SharderTest, RoutesTaskByIssuersCurrentCell) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  Population pop(universe);
  // Device 0 lives at station 0 but has migrated to station 3.
  pop.apply(Event::migrate(0.0, 0, 3));

  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);
  ASSERT_EQ(cut.tasks.size(), 1u);
  EXPECT_EQ(cut.tasks[0].id.user, 0u);
  EXPECT_EQ(cut.topology.device(0).base_station, 3u);
}

TEST(SharderTest, CrossShardOwnerPricesFetchExactly) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  const Population pop(universe);
  // Issuer 0 sits in station 0; its external data lives on device 2, in
  // station 2.
  const Event e = arrival(0, 2, 200e3);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);

  // The owner is a roster device like any other: in its own cell, with
  // its capacity, named once in the one epoch topology.
  EXPECT_EQ(cut.roster, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(cut.tasks.size(), 1u);
  EXPECT_EQ(cut.tasks[0].external_owner, 1u);
  EXPECT_EQ(cut.topology.device(1).base_station, 2u);
  EXPECT_DOUBLE_EQ(cut.topology.device(1).max_resource, 8.0);

  // Cost parity: the epoch topology prices every placement of the task
  // exactly as the universe does, the cross-cell fetch included.
  const mec::TaskCosts in_universe = mec::CostModel(universe).evaluate(e.task);
  const mec::TaskCosts in_epoch =
      mec::CostModel(cut.topology).evaluate(cut.tasks[0]);
  for (const mec::Placement placement : mec::kAllPlacements) {
    EXPECT_EQ(in_epoch.latency(placement), in_universe.latency(placement));
    EXPECT_EQ(in_epoch.energy(placement), in_universe.energy(placement));
  }
}

TEST(SharderTest, DarkCellsCarryNoCapacityAndFadedLinksStretchTransfers) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  Population pop(universe);
  pop.apply(Event::station_down(0.0, 1));
  pop.apply(Event::link_fade(0.0, 0, 0.25));
  pop.apply(Event::link_fade(0.0, 2, 0.5));
  pop.apply(Event::link_fade(0.5, 2, 1.0));  // restored
  // Issuer 0 (station 0) fetches from device 2 (station 2).
  const Event e = arrival(0, 2, 200e3);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);
  ASSERT_EQ(cut.tasks.size(), 1u);
  const mec::Topology& topo = cut.topology;
  EXPECT_DOUBLE_EQ(topo.base_station(0).max_resource, 40.0);
  EXPECT_DOUBLE_EQ(topo.base_station(1).max_resource, 0.0);  // dark
  ASSERT_EQ(cut.roster.size(), 2u);
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
  Sharder sharder(universe);
  const Population pop(universe);
  std::vector<double> dev = no_device_usage(universe);
  std::vector<double> sta = no_station_usage(universe);
  dev[0] = 5.5;   // of 8: 2.5 left
  sta[0] = 33.0;  // of 40: 7 left
  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const EpochProblem cut = sharder.build(pop, dev, sta, batch);
  ASSERT_EQ(cut.tasks.size(), 1u);
  // Local device 0 is universe device 0; cells keep their universe ids.
  ASSERT_EQ(cut.roster[0], 0u);
  EXPECT_DOUBLE_EQ(cut.topology.device(0).max_resource, 2.5);
  EXPECT_DOUBLE_EQ(cut.topology.base_station(0).max_resource, 7.0);
}

TEST(SharderTest, DownDevicesAreExcludedFromTheShardTopology) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  Population pop(universe);
  pop.apply(Event::leave(0.0, 4));  // station 0, the issuer's cell
  const Event e = arrival(0, 0, 0.0);
  const std::vector<BatchTask> batch{record(0, e, pop)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);
  ASSERT_EQ(cut.tasks.size(), 1u);
  for (const std::size_t global : cut.roster) EXPECT_NE(global, 4u);
}

TEST(SharderTest, RosterHoldsOnlyReferencedDevices) {
  // 12 devices over 4 stations; of the devices of stations 0 and 1 (0, 1,
  // 4, 5, 8 and 9), 0 and 4 issue nothing and own nothing.
  const mec::Topology universe = make_universe(12, 4);
  Sharder sharder(universe);
  const Population pop(universe);
  const Trace trace({arrival(9, 6, 200e3),  // owner 6: station 2
                     arrival(5, 5, 0.0),
                     arrival(1, 8, 200e3)});  // owner 8: station 0
  const std::vector<BatchTask> batch{record(0, trace.events()[0], pop),
                                     record(1, trace.events()[1], pop),
                                     record(2, trace.events()[2], pop)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);

  // The named devices in ascending universe id, each with its capacity;
  // every cell, with its universe id.
  EXPECT_EQ(cut.roster, (std::vector<std::size_t>{1, 5, 6, 8, 9}));
  ASSERT_EQ(cut.topology.num_devices(), 5u);
  for (std::size_t local = 0; local < 5; ++local) {
    EXPECT_EQ(cut.topology.device(local).id, local);
    EXPECT_DOUBLE_EQ(cut.topology.device(local).max_resource, 8.0);
  }
  EXPECT_EQ(cut.topology.num_base_stations(), 4u);

  // Tasks keep batch order and point at their devices' local ids.
  ASSERT_EQ(cut.tasks.size(), 3u);
  EXPECT_EQ(cut.tasks[0].id.user, 4u);
  EXPECT_EQ(cut.tasks[0].external_owner, 2u);
  EXPECT_EQ(cut.tasks[1].id.user, 1u);
  EXPECT_EQ(cut.tasks[2].id.user, 0u);
  EXPECT_EQ(cut.tasks[2].external_owner, 3u);

  // Every task still prices exactly as in the universe.
  for (std::size_t t = 0; t < batch.size(); ++t) {
    const mec::TaskCosts in_universe =
        mec::CostModel(universe).evaluate(*batch[t].task);
    const mec::TaskCosts in_epoch =
        mec::CostModel(cut.topology).evaluate(cut.tasks[t]);
    for (const mec::Placement placement : mec::kAllPlacements) {
      EXPECT_EQ(in_epoch.latency(placement), in_universe.latency(placement));
      EXPECT_EQ(in_epoch.energy(placement), in_universe.energy(placement));
    }
  }
}

// A device that issues in one cell and owns data a task of another cell
// reads is one roster entry: both tasks name it by the same local id.
TEST(SharderTest, ShardsNameOneRoster) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  const Population pop(universe);
  const Trace trace({arrival(3, 1, 200e3),  // station 3, owner in station 1
                     arrival(1, 1, 0.0)});  // station 1
  const EpochProblem cut =
      sharder.build(pop, no_device_usage(universe), no_station_usage(universe),
                    {record(0, trace.events()[0], pop),
                     record(1, trace.events()[1], pop)});
  EXPECT_EQ(cut.roster, (std::vector<std::size_t>{1, 3}));
  ASSERT_EQ(cut.tasks.size(), 2u);
  EXPECT_EQ(cut.tasks[0].id.user, 1u);
  EXPECT_EQ(cut.tasks[0].external_owner, 0u);
  EXPECT_EQ(cut.tasks[1].id.user, 0u);
}

TEST(SharderTest, DeadlineOverrideReplacesTheIssuedDeadline) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  const Population pop(universe);
  const Event e = arrival(0, 0, 0.0);  // issued deadline 10s
  const std::vector<BatchTask> batch{record(0, e, pop, 3.25)};
  const EpochProblem cut = sharder.build(pop, no_device_usage(universe),
                                         no_station_usage(universe), batch);
  ASSERT_EQ(cut.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(cut.tasks[0].deadline_s, 3.25);
}

// A build that fails a precondition (here: a data owner that is away)
// throws before it touches the roster scratch, so the next build on the
// same sharder sees a clean bitmap.
TEST(SharderTest, FailedBuildLeavesTheRosterScratchClean) {
  const mec::Topology universe = make_universe();
  Sharder sharder(universe);
  Population pop(universe);
  pop.apply(Event::leave(0.0, 6));
  const Trace trace({arrival(1, 5, 200e3), arrival(3, 6, 200e3),
                     arrival(7, 7, 0.0)});
  EXPECT_THROW(sharder.build(pop, no_device_usage(universe),
                             no_station_usage(universe),
                             {record(0, trace.events()[0], pop),
                              record(1, trace.events()[1], pop)}),
               ModelError);
  const EpochProblem cut =
      sharder.build(pop, no_device_usage(universe), no_station_usage(universe),
                    {record(2, trace.events()[2], pop)});
  ASSERT_EQ(cut.tasks.size(), 1u);
  EXPECT_EQ(cut.roster, (std::vector<std::size_t>{7}));
  EXPECT_EQ(cut.tasks[0].id.user, 0u);
}

// The roster as a sort builds it: every (universe id, slot) reference of
// the batch — slot 2 * task + is_owner — sorted, so the distinct ids in
// order are the roster and each reference's rank is its local id.
struct SortedRoster {
  std::vector<std::size_t> roster;
  std::vector<std::size_t> users;   // local id per batch task
  std::vector<std::size_t> owners;  // local id per batch task, 0 without data
};

SortedRoster sorted_roster(const std::vector<BatchTask>& batch) {
  SortedRoster r;
  std::vector<std::pair<std::size_t, std::size_t>> refs;
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const mec::Task& t = *batch[k].task;
    refs.emplace_back(t.id.user, 2 * k);
    if (t.external_bytes > 0.0) refs.emplace_back(t.external_owner, 2 * k + 1);
  }
  std::sort(refs.begin(), refs.end());
  r.users.assign(batch.size(), 0);
  r.owners.assign(batch.size(), 0);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto [g, slot] = refs[i];
    if (i == 0 || g != refs[i - 1].first) r.roster.push_back(g);
    (slot % 2 == 0 ? r.users : r.owners)[slot / 2] = r.roster.size() - 1;
  }
  return r;
}

// The tasks of a build, against the reference: every batch task in batch
// order, with its local ids.
void expect_tasks_match(const EpochProblem& cut, const SortedRoster& want) {
  ASSERT_EQ(cut.tasks.size(), want.users.size());
  for (std::size_t k = 0; k < cut.tasks.size(); ++k) {
    EXPECT_EQ(cut.tasks[k].id.user, want.users[k]) << "task " << k;
    EXPECT_EQ(cut.tasks[k].external_owner, want.owners[k]) << "task " << k;
  }
}

TEST(SharderTest, RosterMatchesASortBuiltRosterOnRandomBatches) {
  // 600 devices over 80 stations; a fifth of them migrate to a random
  // cell, so a device's cell is not its home cell.
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
  Sharder sharder(universe);
  // Many epochs through one sharder: its scratch must come back clean
  // after every build.
  for (int epoch = 0; epoch < 24; ++epoch) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 400));
    std::vector<Event> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t user = device();
      const double roll = rng.uniform(0.0, 1.0);
      // No data, own data, or another device's (often in another cell).
      events.push_back(roll < 0.2   ? arrival(user, device(), 0.0)
                       : roll < 0.3 ? arrival(user, user, 100e3)
                                    : arrival(user, device(), 100e3));
    }
    std::vector<BatchTask> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(record(i, events[i], pop));
    }
    const EpochProblem cut = sharder.build(
        pop, no_device_usage(universe), no_station_usage(universe), batch);
    const SortedRoster want = sorted_roster(batch);
    SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
    EXPECT_EQ(cut.roster, want.roster);
    expect_tasks_match(cut, want);
  }
}

// Every field of a topology device or station, for exact comparison.
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

// Building from the capacity in use prices every roster device at
// max(0, cap - used) and every up cell at max(0, cap - used), as the
// residual vectors the epoch loop once computed did; dark cells carry
// nothing. The reference prices a sort-built roster that way, and every
// task prices in the epoch topology exactly as in the universe with the
// devices as they are now.
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
  Sharder sharder(universe);
  for (int epoch = 0; epoch < 20; ++epoch) {
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

    const EpochProblem cut = sharder.build(pop, dev_used, st_used, batch);
    const SortedRoster want = sorted_roster(batch);
    SCOPED_TRACE(::testing::Message() << "epoch " << epoch);
    ASSERT_EQ(cut.roster, want.roster);
    expect_tasks_match(cut, want);

    // Cells: every one, with its universe id.
    ASSERT_EQ(cut.topology.num_base_stations(), ns);
    for (std::size_t b = 0; b < ns; ++b) {
      mec::BaseStation bs = universe.base_station(b);
      bs.max_resource = pop.station_up(b)
                            ? std::max(0.0, bs.max_resource - st_used[b])
                            : 0.0;
      expect_same_station(cut.topology.base_station(b), bs);
    }
    ASSERT_EQ(cut.topology.num_devices(), want.roster.size());
    for (std::size_t l = 0; l < want.roster.size(); ++l) {
      const std::size_t g = want.roster[l];
      mec::Device d = pop.device(g);
      d.id = l;
      d.max_resource =
          std::max(0.0, universe.device(g).max_resource - dev_used[g]);
      expect_same_device(cut.topology.device(l), d);
    }

    // Each epoch task is its batch task with local ids and the residual
    // deadline, and prices as the task does against the live devices.
    std::vector<mec::Device> live;
    for (std::size_t g = 0; g < nd; ++g) live.push_back(pop.device(g));
    std::vector<mec::BaseStation> cells;
    for (std::size_t b = 0; b < ns; ++b) {
      cells.push_back(universe.base_station(b));
    }
    const mec::Topology now(std::move(live), std::move(cells),
                            universe.params());
    for (std::size_t i = 0; i < cut.tasks.size(); ++i) {
      mec::Task t = events[i].task;
      t.deadline_s = deadlines[i];
      const mec::Task& got = cut.tasks[i];
      EXPECT_EQ(got.id.index, t.id.index) << "task " << i;
      EXPECT_EQ(got.deadline_s, t.deadline_s) << "task " << i;
      EXPECT_EQ(got.resource, t.resource) << "task " << i;
      EXPECT_EQ(got.external_bytes, t.external_bytes) << "task " << i;
      const mec::TaskCosts in_epoch =
          mec::CostModel(cut.topology).evaluate(got);
      const mec::TaskCosts live_costs = mec::CostModel(now).evaluate(t);
      for (const mec::Placement pl : mec::kAllPlacements) {
        EXPECT_EQ(in_epoch.latency(pl), live_costs.latency(pl));
        EXPECT_EQ(in_epoch.energy(pl), live_costs.energy(pl));
      }
    }
  }
}

}  // namespace
}  // namespace mecsched::serve
