// An HTA problem instance (the "Input" block of Sec. II.C): topology +
// tasks + precomputed per-placement costs + the per-cluster task partition
// that lets LP-HTA treat each cluster independently (Sec. III.A, "each
// cluster can be considered separately").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/grouping.h"
#include "mec/cost_model.h"
#include "mec/task.h"
#include "mec/topology.h"

namespace mecsched::assign {

// The instance borrows its topology and its tasks: both must outlive it.
// It owns what it computes from them — the cost table and the cluster
// partition, one CSR index of the task indices by the issuer's base
// station (common/grouping.h).
class HtaInstance {
 public:
  HtaInstance(const mec::Topology& topology, std::span<const mec::Task> tasks);
  // A temporary task vector would be gone before the instance is.
  HtaInstance(const mec::Topology& topology,
              std::vector<mec::Task>&& tasks) = delete;

  const mec::Topology& topology() const { return *topology_; }
  const mec::Task& task(std::size_t t) const { return tasks_[t]; }
  std::size_t num_tasks() const { return tasks_.size(); }

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

  // Task indices whose issuing device belongs to base station `b`,
  // ascending.
  std::span<const std::size_t> cluster_tasks(std::size_t b) const {
    return cluster_tasks_[b];
  }

 private:
  const mec::Topology* topology_;
  std::span<const mec::Task> tasks_;
  std::vector<mec::TaskCosts> costs_;
  Grouping cluster_tasks_;
};

// Canonical 64-bit hash of exactly what the assigners read — per-placement
// latencies and energies, deadlines, resource demands, cluster membership
// and the device and station capacities — so two instances with the same
// fingerprint are solver-indistinguishable (the `mecsched chaos` per-cell
// digest).
std::uint64_t fingerprint(const HtaInstance& instance);

}  // namespace mecsched::assign
