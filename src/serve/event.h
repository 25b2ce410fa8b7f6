// Typed event stream for the serve daemon (docs/serve.md, "Event model").
//
// A Trace is the daemon's only input: an immutable, time-sorted sequence
// of task arrivals, device churn and infrastructure faults (dark cells,
// faded links). Everything downstream — batching
// windows, admission, sharding, reconciliation — consumes events in trace
// order, which is what makes a serve run replayable: the same trace and
// options produce a byte-identical decision log at any --jobs count.
//
// Times are *virtual* seconds on the trace's own clock. The daemon never
// reads the wall clock for decisions; wall time only feeds observability.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mec/task.h"

namespace mecsched::serve {

enum class EventKind {
  kTaskArrival = 0,  // `task` is valid; task.id.user is the issuer
  kDeviceJoin,       // `device` attaches to `station` (rejoin after leave)
  kDeviceLeave,      // `device` departs; its running work is interrupted
  kDeviceMigrate,    // `device` re-attaches to `station` mid-session
  kStationDown,      // `station` goes dark: zero capacity, and the offloaded
                     // work issued through it is interrupted
  kStationUp,        // `station` serves again
  kLinkFade,         // `device`'s radio rates become `factor` x nominal
                     // (1 restores the link)
};

std::string to_string(EventKind k);

struct Event {
  double time_s = 0.0;
  EventKind kind = EventKind::kTaskArrival;
  mec::Task task{};         // kTaskArrival only
  std::size_t device = 0;   // join / leave / migrate / fade subject
  std::size_t station = 0;  // join / migrate target, station-down/up subject
  double factor = 1.0;      // kLinkFade only, in (0, 1]

  static Event arrival(double time_s, mec::Task task);
  static Event join(double time_s, std::size_t device, std::size_t station);
  static Event leave(double time_s, std::size_t device);
  static Event migrate(double time_s, std::size_t device,
                       std::size_t station);
  static Event station_down(double time_s, std::size_t station);
  static Event station_up(double time_s, std::size_t station);
  static Event link_fade(double time_s, std::size_t device, double factor);
};

class Trace {
 public:
  Trace() = default;
  // Stable-sorts by time: simultaneous events keep their input order, so
  // generator output order is part of the replay contract.
  explicit Trace(std::vector<Event> events);

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  std::size_t arrivals() const { return arrivals_; }
  // Time of the last event (0 for an empty trace).
  double horizon_s() const;

  // Throws ModelError when an event references a device or station outside
  // the universe topology, carries a negative/non-finite time, a link
  // fade's factor is outside (0, 1], or an arrival's task is malformed
  // (non-positive resource, negative sizes). The message names the first
  // such event. O(1) for a valid trace: the constructor makes every check
  // that holds in any universe and records the largest ids the events
  // name, and only a failing trace is scanned again.
  void validate_against(std::size_t num_devices,
                        std::size_t num_stations) const;

 private:
  std::vector<Event> events_;
  std::size_t arrivals_ = 0;
  // One past the largest device, external owner and station id an event
  // names (0 when none does).
  std::size_t devices_named_ = 0;
  std::size_t owners_named_ = 0;
  std::size_t stations_named_ = 0;
  // Every event passes the checks that do not depend on the universe.
  bool self_consistent_ = true;
};

}  // namespace mecsched::serve
