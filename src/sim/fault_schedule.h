// Timed fault injection for the discrete-event simulator and for task
// streams through the serve daemon (serve/stream.h turns a schedule into
// trace events).
//
// The paper's Sec. II model is quasi-static: devices, tasks and shared data
// are fixed for the whole horizon. Real data-shared MEC systems churn — the
// data owners are mobile devices that leave coverage and come back, cells go
// down, links fade. A FaultSchedule is the ordered timeline of such events:
//
//   * device failure / recovery   — the device's CPU and radio vanish and
//     reappear; stages *starting* while it is down never run (in-flight
//     stages complete: a transmission underway is already in the air),
//   * base-station outage / recovery — the station's CPU and its backhaul /
//     WAN forwarding stop serving its cluster,
//   * link degradation            — a device's radio rates are multiplied by
//     `factor` (< 1 stretches transfer time and energy) until restored.
//
// The schedule is immutable once built (events sorted by time, validated).
// State queries answer "is X up at time t" as if replaying the prefix of
// events with time <= t, so an event taking effect exactly at t is already
// visible at t — a stage starting at the failure instant does not run.
// The constructor sorts the state changes by target and time, so a query
// is one binary search, O(log n) in the schedule's n events, at any (not
// necessarily monotone) query time.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace mecsched::sim {

enum class FaultKind {
  kDeviceFail = 0,
  kDeviceRecover = 1,
  kStationFail = 2,
  kStationRecover = 3,
  kLinkDegrade = 4,   // device link rates *= factor (factor in (0, 1])
  kLinkRestore = 5,   // factor back to 1
};

std::string to_string(FaultKind k);

struct FaultEvent {
  double time_s = 0.0;
  FaultKind kind = FaultKind::kDeviceFail;
  std::size_t target = 0;  // device id, or station id for station events
  double factor = 1.0;     // kLinkDegrade only
};

class FaultSchedule {
 public:
  FaultSchedule() = default;
  // Sorts by time (stable: simultaneous events keep insertion order) and
  // validates factors; target ids are validated against a topology at the
  // point of use (validate_against below).
  explicit FaultSchedule(std::vector<FaultEvent> events);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  // Throws ModelError (with the offending event spelled out) if any event
  // targets a device/station outside [0, num_devices) / [0, num_stations).
  void validate_against(std::size_t num_devices,
                        std::size_t num_stations) const;

  // ---- State queries. Events with time <= t have taken effect at t.
  bool device_up(std::size_t device, double t) const;
  bool station_up(std::size_t station, double t) const;
  // Multiplier on the device's radio rates at t (1.0 = healthy).
  double link_factor(std::size_t device, double t) const;

  // Counts of failure events (not recoveries), for reporting.
  std::size_t device_failures() const;
  std::size_t station_failures() const;

 private:
  // One kind of target state (device up, device link factor, station up)
  // as its changes sorted by target, then by schedule order — so one
  // binary search finds the last change of a target at or before t.
  struct Change {
    std::size_t target;
    double time_s;
    double value;
  };
  struct Track {
    // The changes `value_of` reads off the time-sorted events (nullopt:
    // not this track's event).
    static Track build(const std::vector<FaultEvent>& events,
                       std::optional<double> (*value_of)(const FaultEvent&));
    // The value of the target's last change with time <= t, else 1 (up,
    // full link rate: every target starts healthy).
    double at(std::size_t target, double t) const;

    std::vector<Change> changes;
  };

  std::vector<FaultEvent> events_;  // sorted by time_s
  Track device_state_;   // 1 up, 0 down
  Track device_link_;    // radio-rate factor
  Track station_state_;  // 1 up, 0 down
};

}  // namespace mecsched::sim
