// The three-level MEC system (Fig. 1): n mobile devices partitioned into
// k clusters, one base station per cluster, and one remote cloud.
//
// The topology is immutable once built; the builder validates that every
// device belongs to exactly one cluster. Device ids are dense 0..n-1 and
// base-station ids 0..k-1, so lookups are O(1) vectors throughout. The
// clusters are one CSR index of the device ids by base station
// (common/grouping.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/grouping.h"
#include "mec/parameters.h"

namespace mecsched::mec {

struct Device {
  std::size_t id = 0;
  std::size_t base_station = 0;  // cluster membership
  double cpu_hz = 0.0;           // f_i
  RadioProfile radio{};          // Table I row (4G or Wi-Fi)
  double max_resource = 0.0;     // max_i
};

struct BaseStation {
  std::size_t id = 0;
  double cpu_hz = 0.0;        // f_s
  double max_resource = 0.0;  // max_S
};

class Topology {
 public:
  Topology(std::vector<Device> devices, std::vector<BaseStation> stations,
           SystemParameters params);

  std::size_t num_devices() const { return devices_.size(); }
  std::size_t num_base_stations() const { return stations_.size(); }

  // Inline for the cost and assignment hot loops; an index out of range
  // throws ModelError from the cold out-of-line check.
  const Device& device(std::size_t i) const {
    if (i >= devices_.size()) [[unlikely]] check_device(i);
    return devices_[i];
  }
  const BaseStation& base_station(std::size_t b) const {
    if (b >= stations_.size()) [[unlikely]] check_base_station(b);
    return stations_[b];
  }
  const SystemParameters& params() const { return params_; }

  // Devices attached to base station `b` (the cluster), sorted by id.
  std::span<const std::size_t> cluster(std::size_t b) const {
    if (b >= stations_.size()) [[unlikely]] check_base_station(b);
    return clusters_[b];
  }

  bool same_cluster(std::size_t dev_a, std::size_t dev_b) const {
    return device(dev_a).base_station == device(dev_b).base_station;
  }

 private:
  [[gnu::cold]] void check_device(std::size_t i) const;
  [[gnu::cold]] void check_base_station(std::size_t b) const;

  std::vector<Device> devices_;
  std::vector<BaseStation> stations_;
  Grouping clusters_;  // device ids by base station
  SystemParameters params_;
};

}  // namespace mecsched::mec
