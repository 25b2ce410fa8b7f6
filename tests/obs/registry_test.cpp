#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.h"

namespace mecsched::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, KeepsLastWrite) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, SummaryTracksObservations) {
  Histogram h;
  h.observe(1.0);
  h.observe(3.0);
  const Summary s = h.summary();
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(HistogramTest, CumulativeBucketsAreMonotone) {
  Histogram h;
  h.observe(0.5);     // <= 1e0
  h.observe(0.002);   // <= 1e-2
  h.observe(5000.0);  // <= 1e4
  h.observe(1e12);    // above the last finite bound: +Inf only

  const std::vector<std::uint64_t> cum = h.cumulative_buckets();
  ASSERT_EQ(cum.size(), Histogram::bucket_bounds().size());
  for (std::size_t i = 1; i < cum.size(); ++i) EXPECT_GE(cum[i], cum[i - 1]);
  // Three observations fit finite buckets; the 1e12 one only counts toward
  // the implicit +Inf bucket (= summary count).
  EXPECT_EQ(cum.back(), 3u);
  EXPECT_EQ(h.summary().count(), 4u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.observe(1.0);
  h.reset();
  EXPECT_EQ(h.summary().count(), 0u);
  EXPECT_EQ(h.cumulative_buckets().back(), 0u);
}

TEST(HistogramTest, ApproxPercentileBracketsTheSamples) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i * 1e-2);  // 0.01 .. 1.0
  EXPECT_GE(h.approx_percentile(0.5), 0.01);
  EXPECT_LE(h.approx_percentile(0.5), 1.0);
  EXPECT_LE(h.approx_percentile(0.5), h.approx_percentile(0.99));
  EXPECT_TRUE(std::isnan(Histogram().approx_percentile(0.5)));
}

TEST(HistogramTest, ApproxPercentileClampsToObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(5.0);
  // All samples share a bucket; interpolation must not escape [min, max].
  EXPECT_DOUBLE_EQ(h.approx_percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.approx_percentile(0.99), 5.0);
}

TEST(HistogramTest, ApproxPercentileInTheInfBucketIsTheMax) {
  Histogram h;
  h.observe(1.0);
  h.observe(1e12);  // above the last finite bound
  EXPECT_DOUBLE_EQ(h.approx_percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.approx_percentile(1.0), 1e12);
}

TEST(RegistryTest, FindOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& c = reg.counter("a.counter");
  c.add(7);
  EXPECT_EQ(&reg.counter("a.counter"), &c);
  EXPECT_EQ(reg.counter("a.counter").value(), 7u);
}

TEST(RegistryTest, KindCollisionThrows) {
  Registry reg;
  reg.counter("x");
  reg.gauge("y");
  EXPECT_THROW(reg.gauge("x"), ModelError);
  EXPECT_THROW(reg.histogram("x"), ModelError);
  EXPECT_THROW(reg.counter("y"), ModelError);
}

TEST(RegistryTest, ResetZeroesInPlaceKeepingReferencesValid) {
  Registry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.add(5);
  g.set(2.0);
  h.observe(1.0);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.summary().count(), 0u);

  // Cached references must still feed the same registry entries.
  c.add(3);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].second, 3u);
}

TEST(RegistryTest, SnapshotsAreSortedByName) {
  Registry reg;
  reg.counter("z");
  reg.counter("a");
  reg.counter("m");
  const auto snap = reg.counters();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a");
  EXPECT_EQ(snap[1].first, "m");
  EXPECT_EQ(snap[2].first, "z");
}

// The LP-HTA cluster workers report into the registry from std::async
// threads; totals must be exact under contention (run under the
// MECSCHED_SANITIZE build this also exercises the thread sanitizers).
TEST(RegistryTest, ConcurrentWritersProduceExactTotals) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("shared.counter").add();
        reg.histogram("shared.histogram").observe(1.0);
        reg.gauge("shared.gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.counter("shared.counter").value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  const Summary s = reg.histogram("shared.histogram").summary();
  EXPECT_EQ(s.count(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(s.mean(), 1.0);
  EXPECT_GE(reg.gauge("shared.gauge").value(), 0.0);
}

TEST(HistogramTest, ObserveAllMatchesRepeatedObserve) {
  const std::vector<double> values{0.5, 3.0, -2.0, 0.0, 1e12, 7e-4, 3.0};
  Histogram one_by_one;
  for (const double v : values) one_by_one.observe(v);
  Histogram batched;
  batched.observe_all(values);
  batched.observe_all({});
  const Summary a = one_by_one.summary();
  const Summary b = batched.summary();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(one_by_one.cumulative_buckets(), batched.cumulative_buckets());
}

}  // namespace
}  // namespace mecsched::obs
