#include "serve/event.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

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
  EXPECT_EQ(trace.size() - trace.arrivals(), 1u);
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

// The message of the first bad event, as validate_against throws it.
std::string validation_error(const Trace& trace, std::size_t num_devices,
                             std::size_t num_stations) {
  try {
    trace.validate_against(num_devices, num_stations);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "no error";
}

bool names(const std::string& error, const std::string& message) {
  return error.find(message) != std::string::npos;
}

// An arrival by `user` that fetches external data from `owner`.
Event fetching_arrival(double time_s, std::size_t user, std::size_t owner) {
  mec::Task t = small_task(user);
  t.external_bytes = 10.0;
  t.external_owner = owner;
  return Event::arrival(time_s, t);
}

// Names devices up to 6, owners up to 5 and stations up to 3: valid in a
// universe of 7 devices and 4 stations.
std::vector<Event> valid_events() {
  return {Event::arrival(0.0, small_task(2)), fetching_arrival(0.5, 6, 5),
          Event::join(1.0, 1, 3), Event::station_down(1.5, 2),
          Event::link_fade(2.0, 4, 0.5)};
}

TEST(TraceTest, ValidateNamesTheFirstOutOfRangeDevice) {
  std::vector<Event> events = valid_events();
  events.push_back(Event::leave(3.0, 7));
  events.push_back(Event::leave(4.0, 9));
  const Trace trace(std::move(events));
  EXPECT_EQ(validation_error(trace, 10, 4), "no error");
  EXPECT_PRED2(names, validation_error(trace, 8, 4),
               "event 6: device 9 out of range (8 devices)");
  EXPECT_PRED2(names, validation_error(trace, 7, 4),
               "event 5: device 7 out of range (7 devices)");
}

TEST(TraceTest, ValidateNamesTheFirstOutOfRangeOwner) {
  std::vector<Event> events = valid_events();
  events.push_back(fetching_arrival(3.0, 1, 8));
  events.push_back(fetching_arrival(4.0, 1, 9));
  const Trace trace(std::move(events));
  EXPECT_EQ(validation_error(trace, 10, 4), "no error");
  EXPECT_PRED2(names, validation_error(trace, 9, 4),
               "event 6: external owner 9 out of range");
  EXPECT_PRED2(names, validation_error(trace, 8, 4),
               "event 5: external owner 8 out of range");
}

TEST(TraceTest, ValidateNamesTheFirstOutOfRangeStation) {
  const Trace trace(valid_events());
  EXPECT_EQ(validation_error(trace, 7, 4), "no error");
  EXPECT_PRED2(names, validation_error(trace, 7, 3),
               "event 2: station 3 out of range (3 stations)");
  EXPECT_PRED2(names, validation_error(trace, 7, 2),
               "event 2: station 3 out of range (2 stations)");
}

TEST(TraceTest, ValidateNamesABadFadeFactorBeforeALaterRangeError) {
  std::vector<Event> events = valid_events();
  events.push_back(Event::link_fade(3.0, 0, 1.5));
  events.push_back(Event::leave(4.0, 20));
  const Trace trace(std::move(events));
  // The fade (event 5) fails in any universe; the leave (event 6) only in
  // one of at most 20 devices.
  for (const std::size_t nd : {7u, 100u}) {
    EXPECT_PRED2(names, validation_error(trace, nd, 4),
                 "event 5: link fade factor must be in (0, 1]");
  }
}

}  // namespace
}  // namespace mecsched::serve
