#include "mec/topology.h"

#include "common/error.h"

namespace mecsched::mec {

Topology::Topology(std::vector<Device> devices,
                   std::vector<BaseStation> stations, SystemParameters params)
    : devices_(std::move(devices)),
      stations_(std::move(stations)),
      params_(params) {
  MECSCHED_REQUIRE(!stations_.empty(), "topology needs >= 1 base station");
  // One allocation per cluster: count its devices first (an unknown
  // station is skipped here and rejected below).
  clusters_.resize(stations_.size());
  {
    std::vector<std::size_t> size(stations_.size(), 0);
    for (const Device& d : devices_) {
      if (d.base_station < size.size()) ++size[d.base_station];
    }
    for (std::size_t b = 0; b < size.size(); ++b) {
      clusters_[b].reserve(size[b]);
    }
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    Device& d = devices_[i];
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
    clusters_[d.base_station].push_back(i);
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

const std::vector<std::size_t>& Topology::cluster(std::size_t b) const {
  MECSCHED_REQUIRE(b < clusters_.size(),
                   "base station index " + std::to_string(b) +
                       " out of range (" + std::to_string(clusters_.size()) +
                       " stations)");
  return clusters_[b];
}

}  // namespace mecsched::mec
