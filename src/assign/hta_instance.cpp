#include "assign/hta_instance.h"

#include <bit>

#include "common/error.h"
#include "exec/hash.h"

namespace mecsched::assign {

HtaInstance::HtaInstance(const mec::Topology& topology,
                         std::span<const mec::Task> tasks)
    : topology_(&topology), tasks_(tasks) {
  const mec::CostModel model(topology);
  costs_.reserve(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const mec::Task& task = tasks_[t];
    MECSCHED_REQUIRE(task.id.user < topology.num_devices(),
                     "task " + std::to_string(t) + " issued by unknown device " +
                         std::to_string(task.id.user) + " (topology has " +
                         std::to_string(topology.num_devices()) + " devices)");
    MECSCHED_REQUIRE(
        task.external_owner < topology.num_devices(),
        "task " + std::to_string(t) + ": external data owned by unknown device " +
            std::to_string(task.external_owner) + " (topology has " +
            std::to_string(topology.num_devices()) + " devices)");
    MECSCHED_REQUIRE(task.local_bytes >= 0.0 && task.external_bytes >= 0.0,
                     "task " + std::to_string(t) + ": negative data size (local " +
                         std::to_string(task.local_bytes) + " B, external " +
                         std::to_string(task.external_bytes) + " B)");
    MECSCHED_REQUIRE(task.resource >= 0.0,
                     "task " + std::to_string(t) +
                         ": negative resource occupation (" +
                         std::to_string(task.resource) + ")");
    costs_.push_back(model.evaluate(task));
  }
  cluster_tasks_ = Grouping(
      tasks_.size(), topology.num_base_stations(), [&](std::size_t t) {
        return topology.device(tasks_[t].id.user).base_station;
      });
}

bool HtaInstance::schedulable(std::size_t t) const {
  for (mec::Placement p : mec::kAllPlacements) {
    if (meets_deadline(t, p)) return true;
  }
  return false;
}

std::uint64_t fingerprint(const HtaInstance& instance) {
  // Canonicalize -0.0 so numerically equal instances hash equal.
  const auto mix_double = [](std::uint64_t h, double v) {
    return exec::mix(h, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
  };
  const mec::Topology& topo = instance.topology();
  std::uint64_t h = exec::mix(topo.num_devices(), topo.num_base_stations());
  for (std::size_t d = 0; d < topo.num_devices(); ++d) {
    const mec::Device& dev = topo.device(d);
    h = exec::mix(h, dev.base_station);
    h = mix_double(h, dev.max_resource);
  }
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    h = mix_double(h, topo.base_station(b).max_resource);
  }
  h = exec::mix(h, instance.num_tasks());
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const mec::Task& task = instance.task(t);
    h = exec::mix(h, task.id.user);
    h = mix_double(h, task.resource);
    h = mix_double(h, task.deadline_s);
    for (const mec::Placement p : mec::kAllPlacements) {
      h = mix_double(h, instance.latency(t, p));
      h = mix_double(h, instance.energy(t, p));
    }
  }
  return h;
}

}  // namespace mecsched::assign
