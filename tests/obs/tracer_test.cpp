#include "obs/tracer.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "obs/registry.h"

namespace mecsched::obs {
namespace {

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.instant("b", "cat");
  t.complete("c", "cat", 0, 10);
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, CapturesSpansAndInstants) {
  Tracer t;
  t.enable();
  t.instant("solve", "lp");
  t.instant("pivot", "lp", "\"col\":3");
  t.complete("round", "assign", 5, 17);
  t.disable();

  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "solve");
  EXPECT_EQ(events[0].phase, Phase::kInstant);
  EXPECT_EQ(events[1].phase, Phase::kInstant);
  EXPECT_EQ(events[1].args_json, "\"col\":3");
  EXPECT_EQ(events[2].phase, Phase::kComplete);
  EXPECT_EQ(events[2].ts_us, 5);
  EXPECT_EQ(events[2].dur_us, 17);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);  // monotone within a thread
}

TEST(TracerTest, RingWrapsOldestFirstAndCountsDrops) {
  Tracer t;
  t.enable(4);
  for (int i = 0; i < 10; ++i) {
    std::string name = "e";
    name += std::to_string(i);
    t.instant(name, "cat");
  }
  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  // The surviving window is the newest four, oldest first.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
}

TEST(TracerTest, DroppedEventsFeedTheGlobalCounter) {
  // Overflow is also surfaced as obs.tracer.dropped_events so a metrics
  // scrape (and the CLI's exit warning) can see it without the trace file.
  Counter& dropped =
      Registry::global().counter("obs.tracer.dropped_events");
  const std::uint64_t before = dropped.value();
  Tracer t;
  t.enable(2);
  for (int i = 0; i < 5; ++i) t.instant("x", "cat");
  EXPECT_EQ(t.dropped(), 3u);
  EXPECT_EQ(dropped.value(), before + 3u);
}

TEST(TracerTest, ReenableClearsPreviousCapture) {
  Tracer t;
  t.enable(4);
  for (int i = 0; i < 10; ++i) t.instant("x", "cat");
  t.enable(8);
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, ConcurrentRecordingKeepsEveryEventWithinCapacity) {
  Tracer t;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  t.enable(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int j = 0; j < kPerThread; ++j) t.instant("tick", "test");
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(t.snapshot().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(t.dropped(), 0u);

  std::set<std::uint64_t> tids;
  for (const TraceEvent& ev : t.snapshot()) tids.insert(ev.tid);
  EXPECT_GE(tids.size(), 2u);  // events carry distinct thread ids
}

// ScopedTimer always lands in the registry histogram; the trace event is
// emitted only when the global tracer is enabled at construction.
TEST(ScopedTimerTest, FeedsHistogramAlwaysAndTraceWhenEnabled) {
  Registry& reg = Registry::global();
  Tracer& tracer = Tracer::global();
  tracer.disable();
  reg.reset();

  const std::size_t before = reg.histogram("timer.test.seconds").summary().count();
  { const ScopedTimer timer("timer.test", "test"); }
  EXPECT_EQ(reg.histogram("timer.test.seconds").summary().count(), before + 1);

  tracer.enable(16);
  {
    const ScopedTimer timer("timer.test", "test", "\"k\":1");
    EXPECT_GE(timer.elapsed_s(), 0.0);
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  tracer.disable();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "timer.test");
  EXPECT_EQ(events[0].phase, Phase::kComplete);
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_EQ(events[0].args_json, "\"k\":1");
  EXPECT_EQ(reg.histogram("timer.test.seconds").summary().count(), before + 2);
}

}  // namespace
}  // namespace mecsched::obs
