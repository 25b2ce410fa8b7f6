#include "assign/cluster_lp.h"

#include <algorithm>
#include <map>

namespace mecsched::assign {

using mec::Placement;

ClusterLp build_cluster_lp(const HtaInstance& instance, std::size_t b) {
  const mec::Topology& topo = instance.topology();
  ClusterLp out;

  for (std::size_t t : instance.cluster_tasks(b)) {
    if (instance.schedulable(t)) {
      out.active.push_back(t);
    } else {
      out.unschedulable.push_back(t);
    }
  }
  if (out.active.empty()) return out;

  double penalty = 1.0;
  for (std::size_t t : out.active) {
    penalty = std::max(penalty, instance.energy(t, Placement::kCloud));
  }
  out.cancel_penalty = 2.0 * penalty + 1.0;

  for (std::size_t idx = 0; idx < out.active.size(); ++idx) {
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
    out.crash.resize(out.problem.num_variables(), 0.0);
    out.crash[out.column(idx, start)] = 1.0;
    out.problem.add_constraint({{out.column(idx, 0), 1.0},
                                {out.column(idx, 1), 1.0},
                                {out.column(idx, 2), 1.0},
                                {cancel, 1.0}},
                               lp::Relation::kEqual, 1.0);
  }

  std::map<std::size_t, std::vector<lp::Term>> device_rows;
  std::vector<lp::Term> station_terms;
  for (std::size_t idx = 0; idx < out.active.size(); ++idx) {
    const mec::Task& task = instance.task(out.active[idx]);
    device_rows[task.id.user].push_back({out.column(idx, 0), task.resource});
    station_terms.push_back({out.column(idx, 1), task.resource});
  }
  for (auto& [device, terms] : device_rows) {
    out.device_ids.push_back(device);
    out.device_row.push_back(out.problem.add_constraint(
        std::move(terms), lp::Relation::kLessEqual,
        topo.device(device).max_resource));
  }
  out.station_row = out.problem.add_constraint(
      std::move(station_terms), lp::Relation::kLessEqual,
      topo.base_station(b).max_resource);
  return out;
}

}  // namespace mecsched::assign
