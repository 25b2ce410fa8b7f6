#include "assign/hgos.h"

#include <algorithm>
#include <array>
#include <vector>

#include "audit/assignment_audit.h"
#include "mec/cost_model.h"

namespace mecsched::assign {

using mec::Placement;

Assignment Hgos::assign(const HtaInstance& instance) const {
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCloud);
  const mec::Topology& topo = instance.topology();

  std::vector<double> device_load(topo.num_devices(), 0.0);
  std::vector<double> station_load(topo.num_base_stations(), 0.0);

  // Data-distribution-blind energy: HGOS prices a task as if all of its
  // input data were already local to the issuing device (β folded into α).
  const mec::CostModel model(topo);
  auto perceived_costs = [&](std::size_t t) {
    mec::Task blind = instance.task(t);
    blind.local_bytes = blind.input_bytes();
    blind.external_bytes = 0.0;
    return model.evaluate(blind);
  };

  // Most demanding (largest input) tasks choose first — the greedy order of
  // the scheme.
  std::vector<std::size_t> order(instance.num_tasks());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return instance.task(a).input_bytes() > instance.task(b).input_bytes();
  });

  for (std::size_t t : order) {
    const mec::Task& task = instance.task(t);
    const std::size_t bs = topo.device(task.id.user).base_station;

    const mec::TaskCosts perceived = perceived_costs(t);
    std::array<std::pair<double, Placement>, 3> choices = {{
        {perceived.energy(Placement::kLocal), Placement::kLocal},
        {perceived.energy(Placement::kEdge), Placement::kEdge},
        {perceived.energy(Placement::kCloud), Placement::kCloud},
    }};
    std::sort(choices.begin(), choices.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    for (const auto& [energy, p] : choices) {
      (void)energy;
      if (p == Placement::kLocal) {
        if (device_load[task.id.user] + task.resource >
            topo.device(task.id.user).max_resource) {
          continue;
        }
        device_load[task.id.user] += task.resource;
      } else if (p == Placement::kEdge) {
        if (station_load[bs] + task.resource >
            topo.base_station(bs).max_resource) {
          continue;
        }
        station_load[bs] += task.resource;
      }
      out.decisions[t] = to_decision(p);
      break;
    }
  }
  // HGOS never consults deadlines (its defining flaw, Sec. V.B), so the
  // contract audits capacity only.
  audit::check_assignment(instance, out, {.deadlines = false, .capacity = true},
                          "hgos");
  return out;
}

}  // namespace mecsched::assign
