// Reconciler edge cases: what churn and faults do to in-flight work — the
// scenarios docs/serve.md calls out, plus the station outages the
// resilient controller replays.
#include "control/reconciler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace mecsched::control {
namespace {

RunningTask running(std::size_t id, assign::Decision where, double finish_s) {
  RunningTask t;
  t.id = id;
  t.finish_s = finish_s;
  t.where = where;
  t.issuer = 0;
  t.station = 0;
  t.resource = 2.0;
  return t;
}

TEST(ReconcilerTest, IssuerLeaveLosesTheTask) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kEdge, 5.0));
  const Interruptions i = rec.device_left(0, 1.0);
  ASSERT_EQ(i.lost_issuer.size(), 1u);
  EXPECT_EQ(i.lost_issuer[0], 1u);
  EXPECT_TRUE(rec.running().empty());
}

TEST(ReconcilerTest, OwnerLeaveOrphansOnlyExternalTasks) {
  Reconciler rec;
  RunningTask with_ext = running(1, assign::Decision::kEdge, 5.0);
  with_ext.has_external = true;
  with_ext.owner = 3;
  rec.start(with_ext);
  rec.start(running(2, assign::Decision::kEdge, 5.0));  // no external data
  const Interruptions i = rec.device_left(3, 1.0);
  ASSERT_EQ(i.orphaned.size(), 1u);
  EXPECT_EQ(i.orphaned[0], 1u);
  EXPECT_TRUE(i.lost_issuer.empty());
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].id, 2u);
}

TEST(ReconcilerTest, IssuerMigrationOrphansOffloadedWorkOnly) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  const Interruptions i = rec.device_migrated(0, 1.0);
  // Local work travels with the device; edge/cloud lose their delivery
  // path through the old cell.
  ASSERT_EQ(i.orphaned.size(), 2u);
  EXPECT_EQ(i.orphaned[0], 2u);
  EXPECT_EQ(i.orphaned[1], 3u);
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].where, assign::Decision::kLocal);
}

TEST(ReconcilerTest, OwnerMigrationNeverInterrupts) {
  Reconciler rec;
  RunningTask t = running(1, assign::Decision::kEdge, 5.0);
  t.has_external = true;
  t.owner = 3;
  rec.start(t);
  const Interruptions i = rec.device_migrated(3, 1.0);
  EXPECT_TRUE(i.orphaned.empty());
  EXPECT_TRUE(i.lost_issuer.empty());
}

TEST(ReconcilerTest, FinishedWorkSurvivesLaterChurn) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kEdge, 0.5));
  const Interruptions i = rec.device_left(0, 1.0);
  EXPECT_TRUE(i.lost_issuer.empty());
  std::vector<double> dev(1, 0.0), sta(1, 0.0);
  EXPECT_EQ(rec.settle(1.0, dev, sta), 1u);
  EXPECT_TRUE(rec.running().empty());
}

TEST(ReconcilerTest, OccupancyChargesDevicesForLocalAndStationsForEdge) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  rec.start(running(4, assign::Decision::kEdge, 0.5));  // already finished
  std::vector<double> dev(2, 0.0), sta(2, 0.0);
  EXPECT_EQ(rec.settle(1.0, dev, sta), 1u);
  EXPECT_DOUBLE_EQ(dev[0], 2.0);  // the local run
  EXPECT_DOUBLE_EQ(sta[0], 2.0);  // the live edge run only
  EXPECT_DOUBLE_EQ(dev[1], 0.0);
  EXPECT_DOUBLE_EQ(sta[1], 0.0);
}

TEST(ReconcilerTest, SettleKeepsTheRestInStartOrder) {
  Reconciler rec;
  rec.start(running(5, assign::Decision::kEdge, 0.2));
  rec.start(running(6, assign::Decision::kEdge, 0.4));
  rec.start(running(7, assign::Decision::kEdge, 0.1));
  rec.start(running(8, assign::Decision::kLocal, 0.3));  // ends at `now`
  rec.start(running(9, assign::Decision::kLocal, 0.5));
  std::vector<double> dev(1, 0.0), sta(1, 0.0);
  EXPECT_EQ(rec.settle(0.3, dev, sta), 3u);
  ASSERT_EQ(rec.running().size(), 2u);
  EXPECT_EQ(rec.running()[0].id, 6u);
  EXPECT_EQ(rec.running()[1].id, 9u);
  EXPECT_DOUBLE_EQ(dev[0], 2.0);
  EXPECT_DOUBLE_EQ(sta[0], 2.0);
}

TEST(ReconcilerTest, ChurnOnIdleDeviceIsANoOp) {
  Reconciler rec;
  RunningTask t = running(1, assign::Decision::kEdge, 5.0);
  t.has_external = true;
  t.owner = 3;
  rec.start(t);
  rec.start(running(2, assign::Decision::kLocal, 0.5));
  // Device 2 is named by no task; device 9 was never seen at all.
  for (const std::size_t device : {2u, 9u}) {
    for (const Interruptions& i :
         {rec.device_left(device, 1.0), rec.device_migrated(device, 1.0)}) {
      EXPECT_TRUE(i.lost_issuer.empty());
      EXPECT_TRUE(i.orphaned.empty());
    }
  }
  ASSERT_EQ(rec.running().size(), 2u);
  // A busy device still interrupts: the owner leaving orphans task 1.
  std::vector<double> dev(4, 0.0), sta(1, 0.0);
  EXPECT_EQ(rec.settle(0.5, dev, sta), 1u);
  ASSERT_EQ(rec.running().size(), 1u);
  EXPECT_EQ(rec.running()[0].id, 1u);
  EXPECT_EQ(rec.device_left(3, 1.0).orphaned,
            (std::vector<std::size_t>{1}));
  EXPECT_TRUE(rec.running().empty());
}

TEST(ReconcilerTest, StationDownOrphansOffloadedWorkThroughTheCell) {
  Reconciler rec;
  rec.start(running(1, assign::Decision::kLocal, 5.0));  // local: survives
  rec.start(running(2, assign::Decision::kEdge, 5.0));
  rec.start(running(3, assign::Decision::kCloud, 5.0));
  rec.start(running(4, assign::Decision::kEdge, 0.5));  // done before t
  RunningTask other_cell = running(5, assign::Decision::kEdge, 5.0);
  other_cell.station = 1;
  rec.start(other_cell);
  const Interruptions i = rec.station_down(0, 1.0);
  // Edge and cloud runs both reach the device through the dark cell.
  EXPECT_EQ(i.orphaned, (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(i.lost_issuer.empty());
  ASSERT_EQ(rec.running().size(), 3u);
  EXPECT_EQ(rec.running()[0].id, 1u);
  EXPECT_EQ(rec.running()[1].id, 4u);
  EXPECT_EQ(rec.running()[2].id, 5u);
  // The orphans left the ledger: a later migrate of their issuer reaches
  // only the other cell's edge run.
  EXPECT_EQ(rec.device_migrated(0, 1.0).orphaned,
            (std::vector<std::size_t>{5}));
}

// The reconciler as it was before the per-device index: copy and scan the
// whole running set on every churn event. The differential test below
// holds the indexed version to it.
class ReferenceReconciler {
 public:
  void start(const RunningTask& t) { running_.push_back(t); }

  enum class Kind { kLeave, kMigrate, kStationDown };

  Interruptions observe(Kind kind, std::size_t target, double t) {
    Interruptions out;
    std::vector<RunningTask> keep;
    for (const RunningTask& r : running_) {
      if (r.finish_s <= t) {
        keep.push_back(r);
        continue;
      }
      if (kind == Kind::kLeave) {
        if (r.issuer == target) {
          out.lost_issuer.push_back(r.id);
          continue;
        }
        if (r.has_external && r.owner == target) {
          out.orphaned.push_back(r.id);
          continue;
        }
      } else if (kind == Kind::kMigrate) {
        if (r.issuer == target && r.where != assign::Decision::kLocal) {
          out.orphaned.push_back(r.id);
          continue;
        }
      } else if (r.station == target &&
                 r.where != assign::Decision::kLocal) {
        out.orphaned.push_back(r.id);
        continue;
      }
      keep.push_back(r);
    }
    running_.swap(keep);
    return out;
  }

  std::vector<std::size_t> collect_completions(double now) {
    std::vector<std::size_t> done;
    std::vector<RunningTask> keep;
    for (const RunningTask& r : running_) {
      if (r.finish_s <= now) {
        done.push_back(r.id);
      } else {
        keep.push_back(r);
      }
    }
    running_.swap(keep);
    return done;
  }

  void occupancy(double now, std::vector<double>& device_used,
                 std::vector<double>& station_used) const {
    for (const RunningTask& r : running_) {
      if (r.finish_s <= now) continue;
      if (r.where == assign::Decision::kLocal) {
        device_used[r.issuer] += r.resource;
      } else if (r.where == assign::Decision::kEdge) {
        station_used[r.station] += r.resource;
      }
    }
  }

  const std::vector<RunningTask>& running() const { return running_; }

 private:
  std::vector<RunningTask> running_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<std::uint64_t>(x) ==
                  std::bit_cast<std::uint64_t>(y);
         });
}

// Per epoch the serve loop settles the ledger in one sweep and then
// starts more work at the same `now` (triage's dark-cell runs), which
// charges its own usage: the per-device and per-station sums must be bit
// for bit those of collecting, starting and then adding up, as the
// reference does.
TEST(ReconcilerTest, MatchesCopyAndScanReferenceOnRandomStreams) {
  constexpr std::size_t kDevices = 12;
  constexpr std::size_t kStations = 3;
  constexpr assign::Decision kWhere[] = {assign::Decision::kLocal,
                                         assign::Decision::kEdge,
                                         assign::Decision::kCloud};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Reconciler rec;
    ReferenceReconciler ref;
    double now = 0.0;
    std::size_t next_id = 0;
    const auto device = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kDevices) - 1));
    };
    // A task started at `now`; some end at `now` itself.
    const auto task = [&] {
      RunningTask t;
      t.id = next_id++;
      t.finish_s = rng.bernoulli(0.1) ? now : now + rng.uniform(0.0, 3.0);
      t.where = kWhere[rng.uniform_int(0, 2)];
      t.issuer = device();
      t.station = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kStations) - 1));
      t.resource = rng.uniform(0.1, 2.0);
      t.has_external = rng.bernoulli(0.5);
      t.owner = t.has_external ? device() : 0;
      return t;
    };
    for (int step = 0; step < 400; ++step) {
      const double u = rng.uniform(0.0, 1.0);
      if (u < 0.45) {  // start
        const RunningTask t = task();
        rec.start(t);
        ref.start(t);
      } else if (u < 0.85) {  // churn, possibly timed before some finishes
        using Kind = ReferenceReconciler::Kind;
        const double t = now + rng.uniform(0.0, 0.5);
        const double v = rng.uniform(0.0, 1.0);
        const Kind kind = v < 0.45   ? Kind::kLeave
                          : v < 0.9 ? Kind::kMigrate
                                    : Kind::kStationDown;
        const std::size_t target =
            kind == Kind::kStationDown
                ? static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(kStations) - 1))
                : device();
        const Interruptions got =
            kind == Kind::kLeave     ? rec.device_left(target, t)
            : kind == Kind::kMigrate ? rec.device_migrated(target, t)
                                     : rec.station_down(target, t);
        const Interruptions want = ref.observe(kind, target, t);
        ASSERT_EQ(got.lost_issuer, want.lost_issuer) << "seed " << seed;
        ASSERT_EQ(got.orphaned, want.orphaned) << "seed " << seed;
      } else {  // the clock moves: one sweep, then starts after it
        now += rng.uniform(0.0, 1.0);
        std::vector<double> dev(kDevices, 0.0), sta(kStations, 0.0);
        ASSERT_EQ(rec.settle(now, dev, sta),
                  ref.collect_completions(now).size())
            << "seed " << seed;
        const auto after = rng.uniform_int(0, 3);
        for (std::int64_t k = 0; k < after; ++k) {
          const RunningTask t = task();
          rec.start(t);
          ref.start(t);
          charge(t, now, dev, sta);
        }
        std::vector<double> ref_dev(kDevices, 0.0), ref_sta(kStations, 0.0);
        ref.occupancy(now, ref_dev, ref_sta);
        ASSERT_TRUE(same_bits(dev, ref_dev)) << "seed " << seed;
        ASSERT_TRUE(same_bits(sta, ref_sta)) << "seed " << seed;
      }
      ASSERT_EQ(rec.running().size(), ref.running().size());
      for (std::size_t i = 0; i < ref.running().size(); ++i) {
        ASSERT_EQ(rec.running()[i].id, ref.running()[i].id)
            << "seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace mecsched::control
