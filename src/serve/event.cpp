#include "serve/event.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"

namespace mecsched::serve {

std::string to_string(EventKind k) {
  switch (k) {
    case EventKind::kTaskArrival:
      return "task-arrival";
    case EventKind::kDeviceJoin:
      return "device-join";
    case EventKind::kDeviceLeave:
      return "device-leave";
    case EventKind::kDeviceMigrate:
      return "device-migrate";
    case EventKind::kStationDown:
      return "station-down";
    case EventKind::kStationUp:
      return "station-up";
    case EventKind::kLinkFade:
      return "link-fade";
  }
  return "unknown";
}

Event Event::arrival(double time_s, mec::Task task) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kTaskArrival;
  e.task = std::move(task);
  e.device = e.task.id.user;
  return e;
}

Event Event::join(double time_s, std::size_t device, std::size_t station) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kDeviceJoin;
  e.device = device;
  e.station = station;
  return e;
}

Event Event::leave(double time_s, std::size_t device) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kDeviceLeave;
  e.device = device;
  return e;
}

Event Event::migrate(double time_s, std::size_t device, std::size_t station) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kDeviceMigrate;
  e.device = device;
  e.station = station;
  return e;
}

Event Event::station_down(double time_s, std::size_t station) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kStationDown;
  e.station = station;
  return e;
}

Event Event::station_up(double time_s, std::size_t station) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kStationUp;
  e.station = station;
  return e;
}

Event Event::link_fade(double time_s, std::size_t device, double factor) {
  Event e;
  e.time_s = time_s;
  e.kind = EventKind::kLinkFade;
  e.device = device;
  e.factor = factor;
  return e;
}

namespace {

// Station faults name a station and no device; joins and migrates name
// both.
bool names_station_only(const Event& e) {
  return e.kind == EventKind::kStationDown || e.kind == EventKind::kStationUp;
}

bool names_station(const Event& e) {
  return names_station_only(e) || e.kind == EventKind::kDeviceJoin ||
         e.kind == EventKind::kDeviceMigrate;
}

// Every check of event i. Ids are checked against the given sizes, so
// with SIZE_MAX for both only the checks that hold in any universe bind.
void check_event(std::size_t i, const Event& e, std::size_t num_devices,
                 std::size_t num_stations) {
  MECSCHED_REQUIRE(std::isfinite(e.time_s) && e.time_s >= 0.0,
                   "event " + std::to_string(i) +
                       ": time must be finite and non-negative");
  if (!names_station_only(e)) {
    MECSCHED_REQUIRE(e.device < num_devices,
                     "event " + std::to_string(i) + ": device " +
                         std::to_string(e.device) + " out of range (" +
                         std::to_string(num_devices) + " devices)");
  }
  if (names_station(e)) {
    MECSCHED_REQUIRE(e.station < num_stations,
                     "event " + std::to_string(i) + ": station " +
                         std::to_string(e.station) + " out of range (" +
                         std::to_string(num_stations) + " stations)");
  }
  if (e.kind == EventKind::kLinkFade) {
    MECSCHED_REQUIRE(std::isfinite(e.factor) && e.factor > 0.0 &&
                         e.factor <= 1.0,
                     "event " + std::to_string(i) +
                         ": link fade factor must be in (0, 1]");
  }
  if (e.kind == EventKind::kTaskArrival) {
    MECSCHED_REQUIRE(e.task.id.user == e.device,
                     "event " + std::to_string(i) +
                         ": arrival issuer does not match event device");
    MECSCHED_REQUIRE(
        e.task.local_bytes >= 0.0 && e.task.external_bytes >= 0.0,
        "event " + std::to_string(i) + ": task data sizes must be >= 0");
    MECSCHED_REQUIRE(e.task.resource > 0.0,
                     "event " + std::to_string(i) +
                         ": task resource must be positive");
    MECSCHED_REQUIRE(std::isfinite(e.task.deadline_s) &&
                         e.task.deadline_s > 0.0,
                     "event " + std::to_string(i) +
                         ": task deadline must be finite and positive");
    if (e.task.external_bytes > 0.0) {
      MECSCHED_REQUIRE(e.task.external_owner < num_devices,
                       "event " + std::to_string(i) +
                           ": external owner " +
                           std::to_string(e.task.external_owner) +
                           " out of range");
    }
  }
}

}  // namespace

Trace::Trace(std::vector<Event> events) : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.time_s < b.time_s;
                   });
  constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.kind == EventKind::kTaskArrival) {
      ++arrivals_;
      if (e.task.external_bytes > 0.0) {
        owners_named_ = std::max(owners_named_, e.task.external_owner + 1);
      }
    }
    if (!names_station_only(e)) {
      devices_named_ = std::max(devices_named_, e.device + 1);
    }
    if (names_station(e)) {
      stations_named_ = std::max(stations_named_, e.station + 1);
    }
    if (self_consistent_) {
      try {
        check_event(i, e, kAny, kAny);
      } catch (const ModelError&) {
        self_consistent_ = false;
      }
    }
  }
}

double Trace::horizon_s() const {
  return events_.empty() ? 0.0 : events_.back().time_s;
}

void Trace::validate_against(std::size_t num_devices,
                             std::size_t num_stations) const {
  if (self_consistent_ && devices_named_ <= num_devices &&
      owners_named_ <= num_devices && stations_named_ <= num_stations) {
    return;
  }
  // Some event fails: find the first, for its message.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    check_event(i, events_[i], num_devices, num_stations);
  }
}

}  // namespace mecsched::serve
