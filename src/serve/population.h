// The live population: which devices are attached, to which cell, over
// which radio, and which cells are serving. The daemon's view of "the
// system as it is now".
//
// The universe topology fixes each device's identity, nominal radio and
// home station; the population overlays the mutable part — presence, the
// *current* serving station, the current link factor on the radio, and
// each station's up/down state — which the trace's churn and fault events
// move around. Duplicate transitions (join while up, leave while down, a
// station going down twice) are tolerated no-ops, so a generated stream
// needs no global up/down bookkeeping, and among simultaneous events on
// one target the last one wins.
#pragma once

#include <cstddef>
#include <vector>

#include "mec/topology.h"
#include "serve/event.h"

namespace mecsched::serve {

class Population {
 public:
  // Everyone starts up at full link rate, attached to their home
  // (topology) station; every station starts up. Keeps a reference to the
  // universe, which must outlive the population.
  explicit Population(const mec::Topology& universe);

  bool up(std::size_t device) const { return up_[device]; }
  std::size_t station(std::size_t device) const {
    return devices_[device].base_station;
  }
  bool station_up(std::size_t station) const { return station_up_[station]; }
  // The universe's device as it is now: attached to its current station,
  // its radio rates scaled by the current link factor. Every other field
  // (id, capacity, CPU, radio powers) is the universe's.
  const mec::Device& device(std::size_t device) const {
    return devices_[device];
  }

  // Applies one churn or fault event (arrival events are ignored here —
  // they do not move devices). Join re-attaches at the event's target
  // station; migrate moves an *up* device (a migrate of a down device is a
  // no-op); a link fade sets the device's factor.
  void apply(const Event& e);

 private:
  const mec::Topology* universe_;
  std::vector<char> up_;  // vector<bool> is bit-packed; char keeps it simple
  // Each device as it is now, kept current by apply(): one record per
  // device, so a reader of a device's cell and radio reads one place.
  std::vector<mec::Device> devices_;
  std::vector<char> station_up_;
};

}  // namespace mecsched::serve
