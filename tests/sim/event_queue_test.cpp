#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace mecsched::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&](double) { order.push_back(3); });
  q.schedule(1.0, [&](double) { order.push_back(1); });
  q.schedule(2.0, [&](double) { order.push_back(2); });
  const double last = q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(last, 3.0);
  EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i](double) { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&](double now) {
    ++fired;
    q.schedule(now + 1.0, [&](double) { ++fired; });
  });
  const double last = q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(last, 2.0);
}

TEST(EventQueueTest, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule(5.0, [&](double) {
    EXPECT_THROW(q.schedule(1.0, [](double) {}), ModelError);
  });
  q.run();
}

TEST(EventQueueTest, EmptyRunReturnsZero) {
  EventQueue q;
  EXPECT_DOUBLE_EQ(q.run(), 0.0);
}

TEST(EventQueueTest, HandlesLargeEventVolumes) {
  // 100k events in shuffled time order must fire in sorted order.
  EventQueue q;
  mecsched::Rng rng(5);
  std::vector<double> times;
  for (int i = 0; i < 100'000; ++i) times.push_back(rng.uniform(0.0, 1e6));
  double last = -1.0;
  bool ordered = true;
  for (double t : times) {
    q.schedule(t, [&last, &ordered](double now) {
      ordered = ordered && now >= last;
      last = now;
    });
  }
  q.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(q.processed(), 100'000u);
}

TEST(ResourceTest, FifoSerialization) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 2.0), 0.0);   // starts immediately
  EXPECT_DOUBLE_EQ(r.acquire(1.0, 3.0), 2.0);   // queued behind the first
  EXPECT_DOUBLE_EQ(r.acquire(10.0, 1.0), 10.0); // idle gap, starts at arrival
  EXPECT_DOUBLE_EQ(r.busy_time(), 6.0);
  // A zero-length request at t = 0 starts once the server is free.
  EXPECT_DOUBLE_EQ(r.acquire(0.0, 0.0), 11.0);
}

TEST(ResourceTest, RejectsNegativeDuration) {
  Resource r;
  EXPECT_THROW(r.acquire(0.0, -1.0), ModelError);
}

}  // namespace
}  // namespace mecsched::sim
