#include "assign/evaluator.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace mecsched::assign {

Metrics evaluate(const HtaInstance& instance, const Assignment& assignment) {
  MECSCHED_REQUIRE(assignment.size() == instance.num_tasks(),
                   "assignment size mismatch");
  Metrics m;
  m.num_tasks = instance.num_tasks();
  double latency_sum = 0.0;
  std::size_t placed = 0;

  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const Decision d = assignment.decisions[t];
    if (d == Decision::kCancelled) {
      ++m.cancelled;
      continue;
    }
    const mec::Placement p = to_placement(d);
    switch (d) {
      case Decision::kLocal:
        ++m.on_local;
        break;
      case Decision::kEdge:
        ++m.on_edge;
        break;
      case Decision::kCloud:
        ++m.on_cloud;
        break;
      case Decision::kCancelled:
        break;
    }
    const double latency = instance.latency(t, p);
    m.total_energy_j += instance.energy(t, p);
    latency_sum += latency;
    m.max_latency_s = std::max(m.max_latency_s, latency);
    if (!instance.meets_deadline(t, p)) ++m.deadline_violations;
    ++placed;
  }
  m.mean_latency_s = placed == 0 ? 0.0 : latency_sum / static_cast<double>(placed);
  return m;
}

std::vector<PlanViolation> plan_violations(const HtaInstance& instance,
                                           const Assignment& assignment,
                                           bool deadlines, bool capacity) {
  MECSCHED_REQUIRE(assignment.size() == instance.num_tasks(),
                   "assignment size mismatch");
  using Kind = PlanViolation::Kind;
  constexpr double kCapacitySlack = 1e-9;
  const mec::Topology& topo = instance.topology();
  std::vector<PlanViolation> out;
  std::vector<double> device_load(topo.num_devices(), 0.0);
  std::vector<double> station_load(topo.num_base_stations(), 0.0);

  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const Decision d = assignment.decisions[t];
    const int raw = static_cast<int>(d);
    if (raw < 0 || raw > static_cast<int>(Decision::kCancelled)) {
      out.push_back({Kind::kDecision, t, static_cast<double>(raw), 0.0});
      continue;
    }
    if (d == Decision::kCancelled) continue;
    const mec::Task& task = instance.task(t);
    const mec::Placement p = to_placement(d);
    if (deadlines && !instance.meets_deadline(t, p)) {
      out.push_back({Kind::kDeadline, t, instance.latency(t, p),
                     task.deadline_s});
    }
    if (d == Decision::kLocal) {
      device_load[task.id.user] += task.resource;
    } else if (d == Decision::kEdge) {
      station_load[topo.device(task.id.user).base_station] += task.resource;
    }
  }

  if (!capacity) return out;
  for (std::size_t i = 0; i < topo.num_devices(); ++i) {
    const double cap = topo.device(i).max_resource;
    if (device_load[i] - cap > kCapacitySlack) {
      out.push_back({Kind::kDevice, i, device_load[i], cap});
    }
  }
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    const double cap = topo.base_station(b).max_resource;
    if (station_load[b] - cap > kCapacitySlack) {
      out.push_back({Kind::kStation, b, station_load[b], cap});
    }
  }
  return out;
}

FeasibilityReport check_feasibility(const HtaInstance& instance,
                                    const Assignment& assignment) {
  FeasibilityReport report;
  for (const PlanViolation& v :
       plan_violations(instance, assignment, /*deadlines=*/true,
                       /*capacity=*/true)) {
    std::ostringstream os;
    switch (v.kind) {
      case PlanViolation::Kind::kDecision:
        os << "task " << v.index << " carries out-of-range decision "
           << v.value;
        break;
      case PlanViolation::Kind::kDeadline: {
        const Decision d = assignment.decisions[v.index];
        os << mec::to_string(instance.task(v.index).id) << " on "
           << mec::to_string(to_placement(d)) << " misses deadline: "
           << v.value << "s > " << v.limit << "s";
        break;
      }
      case PlanViolation::Kind::kDevice:
      case PlanViolation::Kind::kStation:
        os << (v.kind == PlanViolation::Kind::kDevice ? "device " : "station ")
           << v.index << " over capacity: " << v.value << " > " << v.limit;
        break;
    }
    report.problems.push_back(os.str());
  }
  report.ok = report.problems.empty();
  return report;
}

}  // namespace mecsched::assign
