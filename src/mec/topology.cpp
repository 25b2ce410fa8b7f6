#include "mec/topology.h"

#include "common/error.h"

namespace mecsched::mec {

Topology::Topology(std::vector<Device> devices,
                   std::vector<BaseStation> stations, SystemParameters params)
    : devices_(std::move(devices)),
      stations_(std::move(stations)),
      params_(params) {
  MECSCHED_REQUIRE(!stations_.empty(), "topology needs >= 1 base station");
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const Device& d = devices_[i];
    MECSCHED_REQUIRE(d.id == i, "device ids must be dense 0..n-1 (slot " +
                                    std::to_string(i) + " holds id " +
                                    std::to_string(d.id) + ")");
    MECSCHED_REQUIRE(d.base_station < stations_.size(),
                     "device " + std::to_string(i) +
                         " references unknown base station " +
                         std::to_string(d.base_station) + " (topology has " +
                         std::to_string(stations_.size()) + " stations)");
    MECSCHED_REQUIRE(d.cpu_hz > 0.0,
                     "device " + std::to_string(i) +
                         ": CPU frequency must be positive, got " +
                         std::to_string(d.cpu_hz));
    MECSCHED_REQUIRE(d.radio.upload_bps > 0.0 && d.radio.download_bps > 0.0,
                     "device " + std::to_string(i) +
                         ": radio rates must be positive (up " +
                         std::to_string(d.radio.upload_bps) + " bps, down " +
                         std::to_string(d.radio.download_bps) + " bps)");
  }
  for (std::size_t b = 0; b < stations_.size(); ++b) {
    MECSCHED_REQUIRE(stations_[b].id == b,
                     "station ids must be dense 0..k-1 (slot " +
                         std::to_string(b) + " holds id " +
                         std::to_string(stations_[b].id) + ")");
    MECSCHED_REQUIRE(stations_[b].cpu_hz > 0.0,
                     "station " + std::to_string(b) +
                         ": CPU frequency must be positive, got " +
                         std::to_string(stations_[b].cpu_hz));
  }
  clusters_ = Grouping(devices_.size(), stations_.size(), [&](std::size_t i) {
    return devices_[i].base_station;
  });
}

void Topology::check_device(std::size_t i) const {
  MECSCHED_REQUIRE(i < devices_.size(),
                   "device index " + std::to_string(i) + " out of range (" +
                       std::to_string(devices_.size()) + " devices)");
}

void Topology::check_base_station(std::size_t b) const {
  MECSCHED_REQUIRE(b < stations_.size(),
                   "base station index " + std::to_string(b) +
                       " out of range (" + std::to_string(stations_.size()) +
                       " stations)");
}

}  // namespace mecsched::mec
