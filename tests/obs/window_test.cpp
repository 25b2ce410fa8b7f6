#include "obs/window.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace mecsched::obs {
namespace {

// epoch_seconds == 0 puts a window in manual mode: epochs roll only on
// advance(), so every test below is wall-clock free and deterministic.
// (The class owns a mutex, so windows are constructed in place.)
TEST(WindowedHistogramTest, EmptySnapshotIsAllNaN) {
  const WindowedHistogram w(0.0, 4);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.p50));
  EXPECT_TRUE(std::isnan(s.p99));
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
}

TEST(WindowedHistogramTest, TracksCountSumMinMax) {
  WindowedHistogram w(0.0, 4);
  w.observe(1.0);
  w.observe(3.0);
  w.observe(2.0);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(WindowedHistogramTest, PercentilesClampToObservedRange) {
  WindowedHistogram w(0.0, 4);
  for (int i = 0; i < 100; ++i) w.observe(5.0);
  const auto s = w.snapshot();
  // All samples share a bucket; interpolation must not escape [min, max].
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.p99, 5.0);
}

TEST(WindowedHistogramTest, PercentilesAreOrderedAndBracketed) {
  WindowedHistogram w(0.0, 4);
  for (int i = 1; i <= 1000; ++i) w.observe(i * 1e-3);  // 1ms..1s
  const auto s = w.snapshot();
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(WindowedHistogramTest, OldEpochsFallOutOfTheWindow) {
  WindowedHistogram w(0.0, 3);
  w.observe(1.0);
  w.advance();
  w.observe(2.0);
  EXPECT_EQ(w.snapshot().count, 2u);
  // Two more advances push the epoch holding 1.0 out of the 3-epoch ring.
  w.advance(2);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  // And one more expires everything.
  w.advance();
  EXPECT_EQ(w.snapshot().count, 0u);
}

TEST(WindowedHistogramTest, ManualModeHasNoRate) {
  WindowedHistogram w(0.0, 4);
  w.observe(1.0);
  EXPECT_TRUE(std::isnan(w.snapshot().rate_hz));
}

TEST(WindowedHistogramTest, TimedModeReportsARate) {
  WindowedHistogram w(3600.0, 2);  // huge epochs: nothing expires mid-test
  for (int i = 0; i < 720; ++i) w.observe(1.0);
  const auto s = w.snapshot();
  EXPECT_EQ(s.count, 720u);
  EXPECT_TRUE(std::isfinite(s.rate_hz));
  EXPECT_GT(s.rate_hz, 0.0);
}

TEST(WindowedHistogramTest, RejectsZeroEpochs) {
  EXPECT_THROW(WindowedHistogram(1.0, 0), std::invalid_argument);
  EXPECT_THROW(WindowedHistogram(-1.0, 4), std::invalid_argument);
}

TEST(WindowedHistogramTest, MergeFoldsLiveSamples) {
  WindowedHistogram a(0.0, 4);
  WindowedHistogram b(0.0, 4);
  a.observe(1.0);
  b.observe(2.0);
  b.observe(4.0);
  a.merge_from(b);
  const auto s = a.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(WindowedHistogramTest, MergeOrderDoesNotChangeTheAggregate) {
  // The sweep runner merges shards in grid order; the collapsed-epoch
  // merge must make any order equivalent. Fold the same three shards in
  // two different orders and compare snapshots field by field.
  std::vector<std::vector<double>> shards = {
      {1e-3, 2e-3}, {5e-3, 7e-3, 9e-3}, {4e-3}};
  const auto fold = [&](std::vector<std::size_t> order) {
    WindowedHistogram sink(0.0, 4);
    for (const std::size_t i : order) {
      WindowedHistogram shard(0.0, 4);
      for (const double v : shards[i]) shard.observe(v);
      sink.merge_from(shard);
    }
    return sink.snapshot();
  };
  const auto forward = fold({0, 1, 2});
  const auto backward = fold({2, 1, 0});
  EXPECT_EQ(forward.count, backward.count);
  EXPECT_DOUBLE_EQ(forward.sum, backward.sum);
  EXPECT_DOUBLE_EQ(forward.min, backward.min);
  EXPECT_DOUBLE_EQ(forward.max, backward.max);
  EXPECT_DOUBLE_EQ(forward.p50, backward.p50);
  EXPECT_DOUBLE_EQ(forward.p99, backward.p99);
}

TEST(WindowedHistogramTest, ResetClears) {
  WindowedHistogram w(0.0, 4);
  w.observe(1.0);
  w.reset();
  EXPECT_EQ(w.snapshot().count, 0u);
}

TEST(WindowedHistogramTest, ConcurrentObserversAreCounted) {
  WindowedHistogram w(0.0, 4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&w] {
      for (int i = 0; i < kPerThread; ++i) w.observe(1e-3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(w.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(WindowedHistogramTest, ObserveAllMatchesRepeatedObserve) {
  const std::vector<double> first{0.5, 3.0, -2.0, 0.0};
  const std::vector<double> second{1e12, 7e-4, 3.0};
  WindowedHistogram one_by_one(0.0, 4);
  WindowedHistogram batched(0.0, 4);
  for (const double v : first) one_by_one.observe(v);
  batched.observe_all(first);
  one_by_one.advance();
  batched.advance();
  for (const double v : second) one_by_one.observe(v);
  batched.observe_all(second);
  batched.observe_all({});
  const WindowedHistogram::Snapshot a = one_by_one.snapshot();
  const WindowedHistogram::Snapshot b = batched.snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  // Both batches age out exactly like their samples did.
  one_by_one.advance(3);
  batched.advance(3);
  EXPECT_EQ(one_by_one.snapshot().count, 3u);
  EXPECT_EQ(batched.snapshot().count, 3u);
}

TEST(RateWindowTest, CountsAndExpires) {
  RateWindow r(0.0, 2);
  r.record();
  r.record(4);
  EXPECT_EQ(r.snapshot().count, 5u);
  EXPECT_TRUE(std::isnan(r.snapshot().rate_hz));  // manual mode
  r.advance(2);
  EXPECT_EQ(r.snapshot().count, 0u);
}

TEST(RateWindowTest, MergeAddsCounts) {
  RateWindow a(0.0, 2);
  RateWindow b(0.0, 2);
  a.record(2);
  b.record(3);
  a.merge_from(b);
  EXPECT_EQ(a.snapshot().count, 5u);
}

TEST(RegistryWindowTest, WindowMayShareANameWithAHistogram) {
  Registry reg;
  reg.histogram("exec.sweep.cell_seconds").observe(1.0);
  // Separate namespace: no kind-collision throw, both live.
  reg.window("exec.sweep.cell_seconds", 0.0, 4).observe(1.0);
  EXPECT_EQ(reg.windows().size(), 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(RegistryWindowTest, MergeFromCarriesWindowsAndRates) {
  Registry a;
  Registry b;
  b.window("w", 0.0, 4).observe(2.0);
  b.rate("r", 0.0, 4).record(3);
  a.merge_from(b);
  EXPECT_EQ(a.windows().size(), 1u);
  EXPECT_EQ(a.windows()[0].second->snapshot().count, 1u);
  EXPECT_EQ(a.rates()[0].second->snapshot().count, 3u);
}

TEST(RegistryWindowTest, ResetClearsWindows) {
  Registry reg;
  WindowedHistogram& w = reg.window("w", 0.0, 4);
  w.observe(1.0);
  reg.reset();
  EXPECT_EQ(w.snapshot().count, 0u);  // reference stays valid
}

TEST(HistogramTest, ApproxPercentileBracketsTheSamples) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-2);  // 0.01 .. 1.0
  EXPECT_GE(h.approx_percentile(0.5), 0.01);
  EXPECT_LE(h.approx_percentile(0.5), 1.0);
  EXPECT_LE(h.approx_percentile(0.5), h.approx_percentile(0.99));
  EXPECT_TRUE(std::isnan(Histogram().approx_percentile(0.5)));
}

}  // namespace
}  // namespace mecsched::obs
