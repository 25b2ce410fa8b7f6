#include "assign/online.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "common/error.h"

namespace mecsched::assign {
namespace {

// A task currently occupying capacity somewhere.
struct Running {
  double finish_s;
  Decision where;
  std::size_t device;   // issuer (for kLocal) / its station (for kEdge)
  std::size_t station;
  double resource;
};

// Topology copy with capacities reduced by what is still running.
mec::Topology residual_topology(const mec::Topology& base,
                                const std::vector<Running>& running,
                                double now) {
  std::vector<double> device_used(base.num_devices(), 0.0);
  std::vector<double> station_used(base.num_base_stations(), 0.0);
  for (const Running& r : running) {
    if (r.finish_s <= now) continue;
    if (r.where == Decision::kLocal) device_used[r.device] += r.resource;
    if (r.where == Decision::kEdge) station_used[r.station] += r.resource;
  }
  std::vector<mec::Device> devices;
  devices.reserve(base.num_devices());
  for (std::size_t i = 0; i < base.num_devices(); ++i) {
    mec::Device d = base.device(i);
    d.max_resource = std::max(0.0, d.max_resource - device_used[i]);
    devices.push_back(d);
  }
  std::vector<mec::BaseStation> stations;
  stations.reserve(base.num_base_stations());
  for (std::size_t b = 0; b < base.num_base_stations(); ++b) {
    mec::BaseStation s = base.base_station(b);
    s.max_resource = std::max(0.0, s.max_resource - station_used[b]);
    stations.push_back(s);
  }
  return mec::Topology(std::move(devices), std::move(stations), base.params());
}

}  // namespace

OnlineResult OnlineScheduler::run(const mec::Topology& topology,
                                  const std::vector<TimedTask>& tasks) const {
  MECSCHED_REQUIRE(options_.epoch_s > 0.0, "epoch length must be positive");
  OnlineResult result;
  result.outcomes.assign(tasks.size(), OnlineTaskOutcome{});
  if (tasks.empty()) return result;

  // Process arrivals in release order, but report in input order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].release_s < tasks[b].release_s;
  });

  std::vector<Running> running;
  double response_sum = 0.0;
  std::size_t placed = 0;

  std::size_t next = 0;  // index into `order`
  for (std::size_t epoch = 0; next < order.size(); ++epoch) {
    const double now = static_cast<double>(epoch + 1) * options_.epoch_s;
    // Batch: everything released up to `now`.
    std::vector<std::size_t> batch;
    while (next < order.size() && tasks[order[next]].release_s <= now) {
      batch.push_back(order[next++]);
    }
    if (batch.empty()) continue;
    ++result.epochs;

    // Drop finished tasks' reservations, then schedule against what's left.
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [now](const Running& r) {
                                   return r.finish_s <= now;
                                 }),
                  running.end());
    const mec::Topology residual = residual_topology(topology, running, now);

    std::vector<mec::Task> batch_tasks;
    batch_tasks.reserve(batch.size());
    for (std::size_t id : batch) {
      mec::Task t = tasks[id].task;
      // The wait so far eats into the (relative) deadline.
      t.deadline_s -= now - tasks[id].release_s;
      batch_tasks.push_back(t);
    }
    const HtaInstance instance(residual, std::move(batch_tasks));
    const Assignment plan = LpHta(options_.lp).assign(instance);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t id = batch[i];
      OnlineTaskOutcome& outcome = result.outcomes[id];
      outcome.decision = plan.decisions[i];
      if (outcome.decision == Decision::kCancelled) {
        ++result.cancelled;
        continue;
      }
      const mec::Placement p = to_placement(outcome.decision);
      const double latency = instance.latency(i, p);
      outcome.start_s = now;
      outcome.finish_s = now + latency;
      result.total_energy_j += instance.energy(i, p);
      result.makespan_s = std::max(result.makespan_s, outcome.finish_s);
      response_sum += outcome.finish_s - tasks[id].release_s;
      ++placed;

      const mec::Task& task = instance.task(i);
      running.push_back(Running{
          outcome.finish_s, outcome.decision, task.id.user,
          topology.device(task.id.user).base_station, task.resource});
    }
  }
  result.mean_response_s =
      placed == 0 ? 0.0 : response_sum / static_cast<double>(placed);
  return result;
}

}  // namespace mecsched::assign
