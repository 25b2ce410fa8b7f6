#include "serve/ingest.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mecsched::serve {
namespace {

mec::Task small_task(std::size_t user, std::size_t index) {
  mec::Task t;
  t.id = {user, index};
  t.local_bytes = 1000.0;
  t.external_owner = user;
  t.resource = 1.0;
  t.deadline_s = 1.0;
  return t;
}

Trace arrivals_at(std::vector<double> times) {
  std::vector<Event> events;
  for (std::size_t i = 0; i < times.size(); ++i) {
    events.push_back(Event::arrival(times[i], small_task(0, i)));
  }
  return Trace(std::move(events));
}

TEST(IngestCursorTest, RejectsNonPositiveWindow) {
  const Trace trace;
  EXPECT_THROW(IngestCursor(trace, {0.0, 0}), ModelError);
  EXPECT_THROW(IngestCursor(trace, {-1.0, 0}), ModelError);
}

TEST(IngestCursorTest, WindowClosesOnDeadline) {
  const Trace trace = arrivals_at({0.1, 0.4, 0.6, 1.2});
  IngestCursor cursor(trace, {0.5, 0});
  const Window w0 = cursor.next_window();
  EXPECT_DOUBLE_EQ(w0.close_s, 0.5);
  EXPECT_EQ(w0.events.size(), 2u);
  EXPECT_FALSE(w0.closed_by_size);
  const Window w1 = cursor.next_window();
  EXPECT_DOUBLE_EQ(w1.close_s, 1.0);
  EXPECT_EQ(w1.events.size(), 1u);
  const Window w2 = cursor.next_window();
  EXPECT_EQ(w2.events.size(), 1u);
  EXPECT_TRUE(cursor.next_window().events.empty());  // trace consumed
}

TEST(IngestCursorTest, DeadlineClosesLieOnAnExactGrid) {
  // At 0.1 s a running sum of window lengths drifts off (k+1)·0.1 within
  // a few windows; the k-th close must be the product itself.
  std::vector<double> times;
  for (int k = 0; k < 200; ++k) times.push_back(0.1 * k + 0.05);
  const Trace trace = arrivals_at(times);
  IngestCursor cursor(trace, {0.1, 0});
  for (int k = 0; k < 200; ++k) {
    const Window w = cursor.next_window();
    EXPECT_EQ(w.close_s, static_cast<double>(k + 1) * 0.1) << "window " << k;
  }
}

TEST(IngestCursorTest, SizeCapClosesTheWindowEarly) {
  const Trace trace = arrivals_at({0.1, 0.2, 0.3, 0.4});
  IngestCursor cursor(trace, {10.0, 2});
  const Window w = cursor.next_window();
  EXPECT_TRUE(w.closed_by_size);
  EXPECT_EQ(w.events.size(), 2u);
  // The window closes at the capping arrival's own timestamp, so the next
  // window opens there instead of skipping ahead.
  EXPECT_DOUBLE_EQ(w.close_s, 0.2);
  const Window w2 = cursor.next_window();
  EXPECT_EQ(w2.events.size(), 2u);
}

TEST(IngestCursorTest, ChurnDoesNotCountTowardTheSizeCap) {
  std::vector<Event> events;
  events.push_back(Event::leave(0.05, 0));
  events.push_back(Event::arrival(0.1, small_task(0, 0)));
  events.push_back(Event::join(0.15, 0, 0));
  events.push_back(Event::arrival(0.2, small_task(0, 1)));
  const Trace trace(std::move(events));
  IngestCursor cursor(trace, {10.0, 2});
  const Window w = cursor.next_window();
  EXPECT_TRUE(w.closed_by_size);
  EXPECT_EQ(w.events.size(), 4u);  // both churn events ride along
}

}  // namespace
}  // namespace mecsched::serve
