#include "serve/event.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace mecsched::serve {
namespace {

mec::Task small_task(std::size_t user) {
  mec::Task t;
  t.id = {user, 0};
  t.local_bytes = 1000.0;
  t.external_bytes = 0.0;
  t.external_owner = user;
  t.resource = 1.0;
  t.deadline_s = 1.0;
  return t;
}

TEST(TraceTest, StableSortKeepsInputOrderForSimultaneousEvents) {
  std::vector<Event> events;
  events.push_back(Event::leave(2.0, 0));
  events.push_back(Event::join(1.0, 1, 0));
  events.push_back(Event::migrate(1.0, 2, 0));  // same time as the join
  const Trace trace(std::move(events));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].kind, EventKind::kDeviceJoin);
  EXPECT_EQ(trace.events()[1].kind, EventKind::kDeviceMigrate);
  EXPECT_EQ(trace.events()[2].kind, EventKind::kDeviceLeave);
  EXPECT_DOUBLE_EQ(trace.horizon_s(), 2.0);
}

TEST(TraceTest, CountsArrivalsSeparatelyFromChurn) {
  std::vector<Event> events;
  events.push_back(Event::arrival(0.5, small_task(0)));
  events.push_back(Event::leave(1.0, 1));
  events.push_back(Event::arrival(1.5, small_task(1)));
  const Trace trace(std::move(events));
  EXPECT_EQ(trace.arrivals(), 2u);
  EXPECT_EQ(trace.churn_events(), 1u);
}

TEST(TraceTest, ArrivalFactorySetsDeviceToIssuer) {
  const Event e = Event::arrival(0.1, small_task(4));
  EXPECT_EQ(e.device, 4u);
}

TEST(TraceTest, ValidateRejectsOutOfRangeDevice) {
  const Trace trace({Event::leave(0.0, 5)});
  EXPECT_THROW(trace.validate_against(5, 2), ModelError);
  EXPECT_NO_THROW(trace.validate_against(6, 2));
}

TEST(TraceTest, ValidateRejectsOutOfRangeStation) {
  const Trace trace({Event::join(0.0, 0, 3)});
  EXPECT_THROW(trace.validate_against(4, 3), ModelError);
  EXPECT_NO_THROW(trace.validate_against(4, 4));
}

TEST(TraceTest, ValidateChecksFaultEvents) {
  // Station events name a station, not a device.
  EXPECT_NO_THROW(Trace({Event::station_down(0.0, 2), Event::station_up(1.0, 2)})
                      .validate_against(0, 3));
  EXPECT_THROW(Trace({Event::station_down(0.0, 3)}).validate_against(1, 3),
               ModelError);
  EXPECT_THROW(Trace({Event::station_up(0.0, 3)}).validate_against(1, 3),
               ModelError);
  // A link fade names a device and a factor in (0, 1].
  EXPECT_NO_THROW(Trace({Event::link_fade(0.0, 1, 1.0)}).validate_against(2, 1));
  EXPECT_THROW(Trace({Event::link_fade(0.0, 2, 0.5)}).validate_against(2, 1),
               ModelError);
  for (const double bad : {0.0, -0.5, 1.5, std::nan("")}) {
    EXPECT_THROW(Trace({Event::link_fade(0.0, 0, bad)}).validate_against(1, 1),
                 ModelError)
        << bad;
  }
}

TEST(TraceTest, ValidateRejectsNegativeTime) {
  const Trace trace({Event::leave(-1.0, 0)});
  EXPECT_THROW(trace.validate_against(1, 1), ModelError);
}

TEST(TraceTest, ValidateRejectsMalformedArrival) {
  mec::Task bad = small_task(0);
  bad.resource = 0.0;  // non-positive demand
  const Trace trace({Event::arrival(0.0, bad)});
  EXPECT_THROW(trace.validate_against(1, 1), ModelError);
}

TEST(TraceTest, ValidateRejectsExternalOwnerOutOfRange) {
  mec::Task t = small_task(0);
  t.external_bytes = 10.0;
  t.external_owner = 9;
  const Trace trace({Event::arrival(0.0, t)});
  EXPECT_THROW(trace.validate_against(2, 1), ModelError);
}

}  // namespace
}  // namespace mecsched::serve
