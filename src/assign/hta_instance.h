// A fully materialized HTA problem instance (the "Input" block of Sec. II.C):
// topology + tasks + precomputed per-placement costs + the per-cluster task
// partition that lets LP-HTA treat each cluster independently (Sec. III.A,
// "each cluster can be considered separately").
#pragma once

#include <utility>
#include <vector>

#include "mec/cost_model.h"
#include "mec/task.h"
#include "mec/topology.h"

namespace mecsched::assign {

// The instance owns its tasks. Callers that no longer need their vector
// move it in (HtaInstance(topo, std::move(tasks))) instead of copying it,
// and may take it back unchanged with std::move(instance).release_tasks().
class HtaInstance {
 public:
  HtaInstance(const mec::Topology& topology, std::vector<mec::Task> tasks);

  const mec::Topology& topology() const { return *topology_; }
  const std::vector<mec::Task>& tasks() const { return tasks_; }
  const mec::Task& task(std::size_t t) const { return tasks_[t]; }
  std::size_t num_tasks() const { return tasks_.size(); }
  // Hands the tasks back; the instance is left empty and only fit to be
  // destroyed.
  std::vector<mec::Task> release_tasks() && { return std::move(tasks_); }

  // Precomputed Sec.-II costs for task `t`.
  const mec::TaskCosts& costs(std::size_t t) const { return costs_[t]; }

  double latency(std::size_t t, mec::Placement p) const {
    return costs_[t].latency(p);
  }
  double energy(std::size_t t, mec::Placement p) const {
    return costs_[t].energy(p);
  }
  // Whether placement `p` meets task t's deadline (t_ijl <= T_ij).
  bool meets_deadline(std::size_t t, mec::Placement p) const {
    return latency(t, p) <= tasks_[t].deadline_s + 1e-12;
  }
  // True if at least one placement meets the deadline.
  bool schedulable(std::size_t t) const;

  // Task indices whose issuing device belongs to base station `b`.
  const std::vector<std::size_t>& cluster_tasks(std::size_t b) const {
    return tasks_by_cluster_[b];
  }

 private:
  const mec::Topology* topology_;
  std::vector<mec::Task> tasks_;
  std::vector<mec::TaskCosts> costs_;
  std::vector<std::vector<std::size_t>> tasks_by_cluster_;
};

}  // namespace mecsched::assign
