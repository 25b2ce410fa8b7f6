// FaultSchedule unit tests plus its integration with the discrete-event
// simulator: recovery re-enables hardware, station outages black out a
// cluster's offload path, and link degradation stretches radio stages.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"

#include "assign/lp_hta.h"
#include "sim/fault_schedule.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace mecsched::sim {
namespace {

using assign::Assignment;
using assign::Decision;
using assign::HtaInstance;

workload::Scenario scenario(std::uint64_t seed, std::size_t tasks = 20) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = 10;
  cfg.num_base_stations = 2;
  return workload::make_scenario(cfg);
}

TEST(FaultScheduleTest, StateQueriesReplayThePrefix) {
  const FaultSchedule s({
      {1.0, FaultKind::kDeviceFail, 3, 1.0},
      {2.0, FaultKind::kDeviceRecover, 3, 1.0},
      {1.5, FaultKind::kStationFail, 0, 1.0},
      {4.0, FaultKind::kLinkDegrade, 5, 0.5},
      {6.0, FaultKind::kLinkRestore, 5, 1.0},
  });
  EXPECT_TRUE(s.device_up(3, 0.99));
  EXPECT_FALSE(s.device_up(3, 1.0));  // an event at t is visible at t
  EXPECT_FALSE(s.device_up(3, 1.99));
  EXPECT_TRUE(s.device_up(3, 2.0));
  EXPECT_TRUE(s.device_up(0, 100.0));  // untouched device

  EXPECT_TRUE(s.station_up(0, 1.49));
  EXPECT_FALSE(s.station_up(0, 1.5));
  EXPECT_FALSE(s.station_up(0, 100.0));  // never recovers
  EXPECT_TRUE(s.station_up(1, 100.0));

  EXPECT_DOUBLE_EQ(s.link_factor(5, 3.9), 1.0);
  EXPECT_DOUBLE_EQ(s.link_factor(5, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(s.link_factor(5, 6.0), 1.0);
}

TEST(FaultScheduleTest, EventsAreSortedAndCounted) {
  const FaultSchedule s({
      {5.0, FaultKind::kDeviceFail, 1, 1.0},
      {1.0, FaultKind::kStationFail, 0, 1.0},
      {3.0, FaultKind::kDeviceFail, 2, 1.0},
  });
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.events()[0].time_s, 1.0);
  EXPECT_DOUBLE_EQ(s.events()[1].time_s, 3.0);
  EXPECT_DOUBLE_EQ(s.events()[2].time_s, 5.0);
  EXPECT_EQ(s.device_failures(), 2u);
  EXPECT_EQ(s.station_failures(), 1u);
}

TEST(FaultScheduleTest, SimultaneousEventsApplyInInsertionOrder) {
  const FaultSchedule fail_then_recover({
      {1.0, FaultKind::kDeviceFail, 3, 1.0},
      {1.0, FaultKind::kDeviceRecover, 3, 1.0},
  });
  EXPECT_TRUE(fail_then_recover.device_up(3, 1.0));
  const FaultSchedule recover_then_fail({
      {1.0, FaultKind::kDeviceRecover, 3, 1.0},
      {1.0, FaultKind::kDeviceFail, 3, 1.0},
  });
  EXPECT_FALSE(recover_then_fail.device_up(3, 1.0));
  EXPECT_TRUE(recover_then_fail.device_up(3, 0.5));
}

// Reference semantics of every query: replay the time-sorted events with
// time <= t in schedule order (simultaneous events in insertion order).
struct PrefixReplay {
  const std::vector<FaultEvent>& events;

  bool device_up(std::size_t device, double t) const {
    bool up = true;
    for (const FaultEvent& e : events) {
      if (e.time_s > t) break;
      if (e.target != device) continue;
      if (e.kind == FaultKind::kDeviceFail) up = false;
      if (e.kind == FaultKind::kDeviceRecover) up = true;
    }
    return up;
  }
  bool station_up(std::size_t station, double t) const {
    bool up = true;
    for (const FaultEvent& e : events) {
      if (e.time_s > t) break;
      if (e.target != station) continue;
      if (e.kind == FaultKind::kStationFail) up = false;
      if (e.kind == FaultKind::kStationRecover) up = true;
    }
    return up;
  }
  double link_factor(std::size_t device, double t) const {
    double factor = 1.0;
    for (const FaultEvent& e : events) {
      if (e.time_s > t) break;
      if (e.target != device) continue;
      if (e.kind == FaultKind::kLinkDegrade) factor = e.factor;
      if (e.kind == FaultKind::kLinkRestore) factor = 1.0;
    }
    return factor;
  }
};

TEST(FaultScheduleTest, QueriesMatchAPrefixReplayOnRandomSchedules) {
  // Event times on a coarse grid, so many events (often on one target)
  // share a time and the insertion order among them decides the state.
  // Queries land on, between and beyond the event times, in no order.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const std::size_t targets = 1 + static_cast<std::size_t>(
                                        rng.uniform_int(0, 5));
    std::vector<FaultEvent> events(
        static_cast<std::size_t>(rng.uniform_int(0, 60)));
    for (FaultEvent& e : events) {
      e.time_s = 0.5 * static_cast<double>(rng.uniform_int(0, 8));
      e.kind = static_cast<FaultKind>(rng.uniform_int(0, 5));
      e.target = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(targets) - 1));
      e.factor = e.kind == FaultKind::kLinkDegrade ? rng.uniform(0.1, 1.0)
                                                   : 1.0;
    }
    const FaultSchedule schedule(events);
    const PrefixReplay replay{schedule.events()};
    for (int q = 0; q < 50; ++q) {
      const double t = 0.25 * static_cast<double>(rng.uniform_int(0, 20));
      const std::size_t target = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(targets)));
      EXPECT_EQ(schedule.device_up(target, t), replay.device_up(target, t))
          << "seed " << seed << " device " << target << " t " << t;
      EXPECT_EQ(schedule.station_up(target, t), replay.station_up(target, t))
          << "seed " << seed << " station " << target << " t " << t;
      EXPECT_EQ(schedule.link_factor(target, t),
                replay.link_factor(target, t))
          << "seed " << seed << " device " << target << " t " << t;
    }
  }
}

TEST(FaultScheduleTest, ValidatesEventsAndTargets) {
  EXPECT_THROW(FaultSchedule({{-1.0, FaultKind::kDeviceFail, 0, 1.0}}),
               ModelError);
  EXPECT_THROW(FaultSchedule({{0.0, FaultKind::kLinkDegrade, 0, 0.0}}),
               ModelError);
  EXPECT_THROW(FaultSchedule({{0.0, FaultKind::kLinkDegrade, 0, 1.5}}),
               ModelError);

  const FaultSchedule device_oob({{0.0, FaultKind::kDeviceFail, 9, 1.0}});
  EXPECT_NO_THROW(device_oob.validate_against(10, 1));
  EXPECT_THROW(device_oob.validate_against(9, 1), ModelError);
  const FaultSchedule station_oob({{0.0, FaultKind::kStationFail, 2, 1.0}});
  EXPECT_THROW(station_oob.validate_against(10, 2), ModelError);
}

TEST(FaultSimTest, RecoveryReenablesTheDevice) {
  const auto s = scenario(11);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_local;
  all_local.decisions.assign(inst.num_tasks(), Decision::kLocal);

  // Down during [0, 5); every task is released at t=10, after recovery.
  SimOptions opts;
  opts.faults = FaultSchedule({
      {0.0, FaultKind::kDeviceFail, 0, 1.0},
      {5.0, FaultKind::kDeviceRecover, 0, 1.0},
  });
  opts.release_times.assign(inst.num_tasks(), 10.0);
  const SimResult r = simulate(inst, all_local, opts);
  EXPECT_EQ(r.failed_tasks, 0u);

  // Without the recovery the device's tasks die.
  SimOptions forever;
  forever.faults = FaultSchedule({{0.0, FaultKind::kDeviceFail, 0, 1.0}});
  forever.release_times.assign(inst.num_tasks(), 10.0);
  const SimResult broken = simulate(inst, all_local, forever);
  std::size_t touches_dev0 = 0;
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    if (inst.task(t).id.user == 0 ||
        (inst.task(t).external_bytes > 0.0 &&
         inst.task(t).external_owner == 0)) {
      ++touches_dev0;
    }
  }
  EXPECT_EQ(broken.failed_tasks, touches_dev0);
}

TEST(FaultSimTest, StationOutageKillsItsClustersOffload) {
  const auto s = scenario(12);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_edge;
  all_edge.decisions.assign(inst.num_tasks(), Decision::kEdge);

  SimOptions opts;
  opts.faults = FaultSchedule({{0.0, FaultKind::kStationFail, 0, 1.0}});
  const SimResult r = simulate(inst, all_edge, opts);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    const mec::Task& task = inst.task(t);
    const bool via_station0 =
        s.topology.device(task.id.user).base_station == 0 ||
        (task.external_bytes > 0.0 &&
         s.topology.device(task.external_owner).base_station == 0);
    if (!via_station0) {
      EXPECT_FALSE(r.timelines[t].failed) << "task " << t;
    }
    if (s.topology.device(task.id.user).base_station == 0) {
      EXPECT_TRUE(r.timelines[t].failed) << "task " << t;
    }
  }
}

TEST(FaultSimTest, LinkDegradationStretchesRadioStages) {
  const auto s = scenario(13, 8);
  const HtaInstance inst(s.topology, s.tasks);
  Assignment all_cloud;
  all_cloud.decisions.assign(inst.num_tasks(), Decision::kCloud);
  const SimResult clean = simulate(inst, all_cloud);

  SimOptions opts;
  std::vector<FaultEvent> degrade;
  for (std::size_t d = 0; d < s.topology.num_devices(); ++d) {
    degrade.push_back({0.0, FaultKind::kLinkDegrade, d, 0.5});
  }
  opts.faults = FaultSchedule(degrade);
  const SimResult r = simulate(inst, all_cloud, opts);
  EXPECT_EQ(r.failed_tasks, 0u);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    // Cloud placements always carry radio stages (the issuer uploads its α
    // and downloads the result), so a halved link must strictly hurt.
    EXPECT_GT(r.timelines[t].latency_s(),
              clean.timelines[t].latency_s() * (1.0 + 1e-9))
        << "task " << t;
    EXPECT_GT(r.timelines[t].energy_j, clean.timelines[t].energy_j)
        << "task " << t;
  }

  // Restored before release: costs match the clean run exactly.
  SimOptions restored;
  std::vector<FaultEvent> cycle = degrade;
  for (std::size_t d = 0; d < s.topology.num_devices(); ++d) {
    cycle.push_back({1.0, FaultKind::kLinkRestore, d, 1.0});
  }
  restored.faults = FaultSchedule(cycle);
  restored.release_times.assign(inst.num_tasks(), 2.0);
  const SimResult after = simulate(inst, all_cloud, restored);
  for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
    EXPECT_NEAR(after.timelines[t].latency_s(), clean.timelines[t].latency_s(),
                1e-9 * (1.0 + clean.timelines[t].latency_s()));
  }
}

TEST(FaultSimTest, ScheduleTargetsAreValidated) {
  const auto s = scenario(15, 5);
  const HtaInstance inst(s.topology, s.tasks);
  const auto plan = assign::LpHta().assign(inst);
  SimOptions opts;
  opts.faults = FaultSchedule({{0.0, FaultKind::kDeviceFail, 99, 1.0}});
  EXPECT_THROW(simulate(inst, plan, opts), ModelError);
}

}  // namespace
}  // namespace mecsched::sim
