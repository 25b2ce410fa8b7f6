#include "assign/hta_instance.h"

#include "common/error.h"

namespace mecsched::assign {

HtaInstance::HtaInstance(const mec::Topology& topology,
                         std::vector<mec::Task> tasks)
    : topology_(&topology), tasks_(std::move(tasks)) {
  const mec::CostModel model(topology);
  costs_.reserve(tasks_.size());
  // Tasks per cluster, so each cluster's list is one exact block.
  std::vector<std::size_t> cluster_size(topology.num_base_stations(), 0);
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
    ++cluster_size[topology.device(task.id.user).base_station];
  }
  tasks_by_cluster_.resize(topology.num_base_stations());
  for (std::size_t b = 0; b < cluster_size.size(); ++b) {
    tasks_by_cluster_[b].reserve(cluster_size[b]);
  }
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    tasks_by_cluster_[topology.device(tasks_[t].id.user).base_station]
        .push_back(t);
  }
}

bool HtaInstance::schedulable(std::size_t t) const {
  for (mec::Placement p : mec::kAllPlacements) {
    if (meets_deadline(t, p)) return true;
  }
  return false;
}

}  // namespace mecsched::assign
