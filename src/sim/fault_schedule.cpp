#include "sim/fault_schedule.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace mecsched::sim {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kDeviceFail:
      return "device-fail";
    case FaultKind::kDeviceRecover:
      return "device-recover";
    case FaultKind::kStationFail:
      return "station-fail";
    case FaultKind::kStationRecover:
      return "station-recover";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkRestore:
      return "link-restore";
  }
  return "unknown";
}

namespace {

std::string describe(const FaultEvent& e) {
  std::ostringstream os;
  os << to_string(e.kind) << " target=" << e.target << " at t=" << e.time_s;
  if (e.kind == FaultKind::kLinkDegrade) os << " factor=" << e.factor;
  return os.str();
}

bool targets_device(FaultKind k) {
  return k == FaultKind::kDeviceFail || k == FaultKind::kDeviceRecover ||
         k == FaultKind::kLinkDegrade || k == FaultKind::kLinkRestore;
}

}  // namespace

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const FaultEvent& e : events_) {
    MECSCHED_REQUIRE(e.time_s >= 0.0, "fault event before t=0: " + describe(e));
    if (e.kind == FaultKind::kLinkDegrade) {
      MECSCHED_REQUIRE(e.factor > 0.0 && e.factor <= 1.0,
                       "link degradation factor must be in (0, 1]: " +
                           describe(e));
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_s < b.time_s;
                   });
  device_state_ = Track::build(
      events_, [](const FaultEvent& e) -> std::optional<double> {
        if (e.kind == FaultKind::kDeviceFail) return 0.0;
        if (e.kind == FaultKind::kDeviceRecover) return 1.0;
        return std::nullopt;
      });
  device_link_ = Track::build(
      events_, [](const FaultEvent& e) -> std::optional<double> {
        if (e.kind == FaultKind::kLinkDegrade) return e.factor;
        if (e.kind == FaultKind::kLinkRestore) return 1.0;
        return std::nullopt;
      });
  station_state_ = Track::build(
      events_, [](const FaultEvent& e) -> std::optional<double> {
        if (e.kind == FaultKind::kStationFail) return 0.0;
        if (e.kind == FaultKind::kStationRecover) return 1.0;
        return std::nullopt;
      });
}

void FaultSchedule::validate_against(std::size_t num_devices,
                                     std::size_t num_stations) const {
  for (const FaultEvent& e : events_) {
    if (targets_device(e.kind)) {
      MECSCHED_REQUIRE(e.target < num_devices,
                       "fault event targets unknown device (" + describe(e) +
                           ", topology has " + std::to_string(num_devices) +
                           " devices)");
    } else {
      MECSCHED_REQUIRE(e.target < num_stations,
                       "fault event targets unknown station (" + describe(e) +
                           ", topology has " + std::to_string(num_stations) +
                           " stations)");
    }
  }
}

FaultSchedule::Track FaultSchedule::Track::build(
    const std::vector<FaultEvent>& events,
    std::optional<double> (*value_of)(const FaultEvent&)) {
  Track track;
  for (const FaultEvent& e : events) {
    if (const std::optional<double> v = value_of(e)) {
      track.changes.push_back({e.target, e.time_s, *v});
    }
  }
  // Stable: a target's changes stay in schedule (time, then insertion)
  // order, so among simultaneous changes the last one wins, as in a replay.
  std::stable_sort(track.changes.begin(), track.changes.end(),
                   [](const Change& a, const Change& b) {
                     return a.target < b.target;
                   });
  return track;
}

double FaultSchedule::Track::at(std::size_t target, double t) const {
  // First change past (target, t): its predecessor, when it is the same
  // target's, is the last change with time <= t.
  const auto it = std::upper_bound(
      changes.begin(), changes.end(), std::pair(target, t),
      [](const std::pair<std::size_t, double>& key, const Change& c) {
        return key.first < c.target ||
               (key.first == c.target && key.second < c.time_s);
      });
  if (it == changes.begin() || std::prev(it)->target != target) return 1.0;
  return std::prev(it)->value;
}

bool FaultSchedule::device_up(std::size_t device, double t) const {
  return device_state_.at(device, t) != 0.0;
}

bool FaultSchedule::station_up(std::size_t station, double t) const {
  return station_state_.at(station, t) != 0.0;
}

double FaultSchedule::link_factor(std::size_t device, double t) const {
  return device_link_.at(device, t);
}

std::size_t FaultSchedule::device_failures() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kDeviceFail) ++n;
  }
  return n;
}

std::size_t FaultSchedule::station_failures() const {
  std::size_t n = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kStationFail) ++n;
  }
  return n;
}

}  // namespace mecsched::sim
