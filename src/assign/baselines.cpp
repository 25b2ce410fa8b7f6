#include "assign/baselines.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "audit/assignment_audit.h"
#include "common/rng.h"

namespace mecsched::assign {

using mec::Placement;

Assignment AllToCloud::assign(const HtaInstance& instance) const {
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCloud);
  audit::check_assignment(instance, out, {.deadlines = false, .capacity = true},
                          "alltoc");
  return out;
}

Assignment AllOffload::assign(const HtaInstance& instance) const {
  // Offload everything; base stations are filled with the tasks that save
  // the most energy relative to the cloud, the overflow goes to the cloud.
  // Deadlines are NOT consulted — that is the point of this baseline.
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCloud);
  const mec::Topology& topo = instance.topology();

  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    const std::span<const std::size_t> members = instance.cluster_tasks(b);
    std::vector<std::size_t> tasks(members.begin(), members.end());
    // Best energy saving per resource unit first.
    std::sort(tasks.begin(), tasks.end(), [&](std::size_t x, std::size_t y) {
      const auto gain = [&](std::size_t t) {
        const double saving = instance.energy(t, Placement::kCloud) -
                              instance.energy(t, Placement::kEdge);
        return saving / std::max(instance.task(t).resource, 1e-9);
      };
      return gain(x) > gain(y);
    });
    double load = 0.0;
    const double cap = topo.base_station(b).max_resource;
    for (std::size_t t : tasks) {
      const double r = instance.task(t).resource;
      if (load + r > cap) continue;
      if (instance.energy(t, Placement::kEdge) >=
          instance.energy(t, Placement::kCloud)) {
        continue;  // edge would not even save energy
      }
      out.decisions[t] = Decision::kEdge;
      load += r;
    }
  }
  audit::check_assignment(instance, out, {.deadlines = false, .capacity = true},
                          "alloffload");
  return out;
}

Assignment RandomAssign::assign(const HtaInstance& instance) const {
  Rng rng(seed_);
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCloud);
  const mec::Topology& topo = instance.topology();
  std::vector<double> device_load(topo.num_devices(), 0.0);
  std::vector<double> station_load(topo.num_base_stations(), 0.0);

  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const mec::Task& task = instance.task(t);
    const std::size_t bs = topo.device(task.id.user).base_station;
    const int pick = static_cast<int>(rng.uniform_int(0, 2));
    if (pick == 0 &&
        device_load[task.id.user] + task.resource <=
            topo.device(task.id.user).max_resource) {
      out.decisions[t] = Decision::kLocal;
      device_load[task.id.user] += task.resource;
    } else if (pick == 1 && station_load[bs] + task.resource <=
                                topo.base_station(bs).max_resource) {
      out.decisions[t] = Decision::kEdge;
      station_load[bs] += task.resource;
    }  // otherwise stays kCloud
  }
  audit::check_assignment(instance, out, {.deadlines = false, .capacity = true},
                          "random");
  return out;
}

Assignment LocalFirst::assign(const HtaInstance& instance) const {
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCancelled);
  const mec::Topology& topo = instance.topology();
  std::vector<double> device_load(topo.num_devices(), 0.0);
  std::vector<double> station_load(topo.num_base_stations(), 0.0);

  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const mec::Task& task = instance.task(t);
    const std::size_t bs = topo.device(task.id.user).base_station;
    if (instance.meets_deadline(t, Placement::kLocal) &&
        device_load[task.id.user] + task.resource <=
            topo.device(task.id.user).max_resource) {
      out.decisions[t] = Decision::kLocal;
      device_load[task.id.user] += task.resource;
    } else if (instance.meets_deadline(t, Placement::kEdge) &&
               station_load[bs] + task.resource <=
                   topo.base_station(bs).max_resource) {
      out.decisions[t] = Decision::kEdge;
      station_load[bs] += task.resource;
    } else if (instance.meets_deadline(t, Placement::kCloud)) {
      out.decisions[t] = Decision::kCloud;
    }  // else remains cancelled
  }
  audit::check_assignment(instance, out, {.deadlines = true, .capacity = true},
                          "local-first");
  return out;
}

}  // namespace mecsched::assign
