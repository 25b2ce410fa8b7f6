#include "assign/cluster_lp.h"

#include <algorithm>
#include <span>

namespace mecsched::assign {

using mec::Placement;

ClusterLp build_cluster_lp(const HtaInstance& instance, std::size_t b) {
  const mec::Topology& topo = instance.topology();
  ClusterLp out;

  const std::span<const std::size_t> tasks = instance.cluster_tasks(b);
  out.active.reserve(tasks.size());
  for (const std::size_t t : tasks) {
    if (instance.schedulable(t)) {
      out.active.push_back(t);
    } else {
      ++out.unschedulable;
    }
  }
  if (out.active.empty()) return out;

  // Exact shape: 4 columns and one 4-term row per task, at most one
  // device row per task plus the station row, and one device-row and one
  // station-row term per task.
  const std::size_t n = out.active.size();
  out.problem.reserve(4 * n, 2 * n + 1, 6 * n);
  out.crash.assign(4 * n, 0.0);
  out.device_ids.reserve(n);
  out.device_begin.reserve(n + 1);

  double penalty = 1.0;
  for (std::size_t t : out.active) {
    penalty = std::max(penalty, instance.energy(t, Placement::kCloud));
  }
  out.cancel_penalty = 2.0 * penalty + 1.0;

  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t t = out.active[idx];
    std::size_t start = 3;  // cancel column unless a placement fits whole
    for (std::size_t l = 0; l < 3; ++l) {
      const Placement pl = mec::kAllPlacements[l];
      const double latency = instance.latency(t, pl);
      const double ub =
          latency <= 0.0
              ? 1.0
              : std::min(1.0, instance.task(t).deadline_s / latency);
      const double cost = instance.energy(t, pl);
      out.problem.add_variable(cost, 0.0, ub);
      if (ub >= 1.0 &&
          (start == 3 || cost < out.problem.cost(out.column(idx, start)))) {
        start = l;
      }
    }
    const std::size_t cancel = out.problem.add_variable(out.cancel_penalty, 0.0, 1.0);
    out.crash[out.column(idx, start)] = 1.0;
    out.problem.add_constraint({{out.column(idx, 0), 1.0},
                                {out.column(idx, 1), 1.0},
                                {out.column(idx, 2), 1.0},
                                {cancel, 1.0}},
                               lp::Relation::kEqual, 1.0);
  }

  // Bucket the task slots by issuing device: ascending device ids, slots
  // in `active` order within a device. Every issuer is in the cluster's
  // device list, which ascends, so a count per device, one pass over that
  // list turning counts into first slots, and a scatter in `active` order
  // fill the buckets. The counts live in a per-thread scratch indexed by
  // device id whose entries for this cluster's devices are zeroed first,
  // so a build costs O(cluster), not O(devices).
  thread_local std::vector<std::size_t> slot_of;
  if (slot_of.size() < topo.num_devices()) slot_of.resize(topo.num_devices());
  const auto issuer = [&](std::size_t idx) {
    return instance.task(out.active[idx]).id.user;
  };
  const std::span<const std::size_t> members = topo.cluster(b);
  for (const std::size_t device : members) slot_of[device] = 0;
  for (std::size_t idx = 0; idx < n; ++idx) ++slot_of[issuer(idx)];
  std::size_t next = 0;
  for (const std::size_t device : members) {
    const std::size_t count = slot_of[device];
    if (count == 0) continue;
    out.device_ids.push_back(device);
    out.device_begin.push_back(next);
    slot_of[device] = next;
    next += count;
  }
  out.device_begin.push_back(n);
  out.device_slots.resize(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    out.device_slots[slot_of[issuer(idx)]++] = idx;
  }

  // One term buffer serves every device row and then the station row.
  std::vector<lp::Term> terms;
  terms.reserve(n);
  for (std::size_t i = 0; i < out.device_ids.size(); ++i) {
    terms.clear();
    for (std::size_t k = out.device_begin[i]; k < out.device_begin[i + 1];
         ++k) {
      const std::size_t idx = out.device_slots[k];
      terms.push_back(
          {out.column(idx, 0), instance.task(out.active[idx]).resource});
    }
    out.problem.add_constraint(terms, lp::Relation::kLessEqual,
                               topo.device(out.device_ids[i]).max_resource);
  }
  terms.clear();
  for (std::size_t idx = 0; idx < n; ++idx) {
    terms.push_back(
        {out.column(idx, 1), instance.task(out.active[idx]).resource});
  }
  out.problem.add_constraint(terms, lp::Relation::kLessEqual,
                             topo.base_station(b).max_resource);
  return out;
}

}  // namespace mecsched::assign
