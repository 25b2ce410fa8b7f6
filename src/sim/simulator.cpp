#include "sim/simulator.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "mec/cost_model.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"

namespace mecsched::sim {
namespace {

using assign::Decision;
using units::transfer_seconds;

// One service step: hold `resource` (nullable => no contention) for
// `duration`, then wait `latency` more (propagation that does not occupy
// the resource), spending `energy`.
struct Stage {
  Resource* resource = nullptr;
  double duration = 0.0;
  double latency = 0.0;
  double energy = 0.0;
  // The mobile device whose hardware this stage occupies (its CPU or its
  // radio); stages on base stations / WAN / cloud carry no device and are
  // immune to device-failure injection.
  std::optional<std::size_t> device;
  // The base station whose CPU or forwarding path this stage needs; a
  // station outage at the stage's start kills the task.
  std::optional<std::size_t> station;
  // Radio stages are subject to the device's link-degradation factor.
  bool radio = false;
};

using Chain = std::vector<Stage>;

// The execution plan of one placed task: parallel prefix legs that join,
// then a sequential suffix. Legs may be empty (they join immediately).
struct TaskPlan {
  std::vector<Chain> legs;
  Chain suffix;
};

// Mutable per-task state shared by the scheduled callbacks.
struct TaskState {
  std::size_t task = 0;
  int pending_legs = 0;
  TaskTimeline* timeline = nullptr;
  Chain suffix;
};

// Runs `chain[idx..]` starting at the current event time, then calls
// `done`. All captured state is by value (shared_ptr / copies), so no
// callback ever references a dead stack frame. `faults` outlives the
// queue run (it lives in simulate()'s frame).
void run_chain(EventQueue& queue, std::shared_ptr<const Chain> chain,
               std::size_t idx, double now, TaskTimeline* timeline,
               const FaultSchedule* faults, std::function<void(double)> done) {
  if (idx == chain->size()) {
    done(now);
    return;
  }
  const Stage& s = (*chain)[idx];
  // Link degradation stretches a radio stage's service time and energy;
  // the factor is sampled when the stage is requested.
  double duration = s.duration;
  double energy = s.energy;
  if (s.radio && s.device.has_value()) {
    const double factor = faults->link_factor(*s.device, now);
    duration /= factor;
    energy /= factor;
  }
  const double start =
      s.resource != nullptr ? s.resource->acquire(now, duration) : now;
  const bool device_dead =
      s.device.has_value() && !faults->device_up(*s.device, start);
  const bool station_dead =
      s.station.has_value() && !faults->station_up(*s.station, start);
  if (device_dead || station_dead) {
    // The hardware died before this stage could begin: the task is lost.
    timeline->failed = true;
    return;
  }
  timeline->energy_j += energy;
  queue.schedule(start + duration + s.latency,
                 [&queue, chain, idx, timeline, faults,
                  done = std::move(done)](double when) {
                   run_chain(queue, chain, idx + 1, when, timeline, faults,
                             std::move(done));
                 });
}

// All FIFO servers of the simulated system.
struct Servers {
  std::vector<Resource> device_up;
  std::vector<Resource> device_down;
  std::vector<Resource> device_cpu;
  std::vector<Resource> station_cpu;
  Resource backhaul;
  Resource wan;
};

}  // namespace

SimResult simulate(const assign::HtaInstance& instance,
                   const assign::Assignment& assignment, SimOptions options) {
  const obs::ScopedTimer span("sim.run", "sim");
  MECSCHED_REQUIRE(assignment.size() == instance.num_tasks(),
                   "assignment size mismatch");
  const mec::Topology& topo = instance.topology();
  const mec::SystemParameters& params = topo.params();
  const mec::CostModel cost(topo);

  SimResult result;
  result.timelines.resize(instance.num_tasks());

  Servers servers;
  const bool contend = options.model_contention;
  if (contend) {
    servers.device_up.resize(topo.num_devices());
    servers.device_down.resize(topo.num_devices());
    servers.device_cpu.resize(topo.num_devices());
    servers.station_cpu.resize(topo.num_base_stations());
  }
  auto up = [&](std::size_t d) { return contend ? &servers.device_up[d] : nullptr; };
  auto down = [&](std::size_t d) { return contend ? &servers.device_down[d] : nullptr; };
  auto dev_cpu = [&](std::size_t d) { return contend ? &servers.device_cpu[d] : nullptr; };
  auto bs_cpu = [&](std::size_t b) { return contend ? &servers.station_cpu[b] : nullptr; };
  Resource* backhaul = contend ? &servers.backhaul : nullptr;
  Resource* wan = contend ? &servers.wan : nullptr;

  // ---- Build the plan of every placed task (pure data, no callbacks).
  std::vector<TaskPlan> plans(instance.num_tasks());
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const Decision d = assignment.decisions[t];
    if (d == Decision::kCancelled) continue;
    const mec::Task& task = instance.task(t);
    const std::size_t issuer = task.id.user;
    const std::size_t owner = task.external_owner;
    const std::size_t bs = topo.device(issuer).base_station;
    const double alpha = task.local_bytes;
    const double beta = task.external_bytes;
    const double result_bytes = task.result_bytes();
    const bool fetch_needed = beta > 0.0 && owner != issuer;
    const bool cross = fetch_needed && !topo.same_cluster(owner, issuer);
    TaskPlan& plan = plans[t];

    // External fetch leg up to the issuer's base station. The backhaul hop
    // only exists for local/edge placements; for cloud the owner's station
    // forwards straight over the WAN (Sec. II, t^(R)_ij3 has no t_BB term).
    Chain fetch_leg;
    if (fetch_needed) {
      fetch_leg.push_back({up(owner), cost.upload_seconds(owner, beta), 0.0,
                           cost.upload_energy(owner, beta), owner,
                           std::nullopt, true});
      if (cross && d != Decision::kCloud) {
        // The backhaul hop lands at the issuer's station; an outage there
        // leaves the fetched data undeliverable.
        fetch_leg.push_back({backhaul,
                             transfer_seconds(beta, params.bs_to_bs_rate_bps),
                             params.bs_to_bs_latency_s,
                             cost.bs_to_bs_energy(beta), std::nullopt, bs,
                             false});
      }
    }

    switch (d) {
      case Decision::kLocal: {
        Chain leg = fetch_leg;
        if (fetch_needed) {
          leg.push_back({down(issuer), cost.download_seconds(issuer, beta),
                         0.0, cost.download_energy(issuer, beta), issuer,
                         std::nullopt, true});
        }
        plan.legs.push_back(std::move(leg));
        const double f = topo.device(issuer).cpu_hz;
        plan.suffix.push_back({dev_cpu(issuer), task.cycles() / f, 0.0,
                               params.kappa * task.cycles() * f * f, issuer,
                               std::nullopt, false});
        break;
      }
      case Decision::kEdge: {
        plan.legs.push_back(std::move(fetch_leg));
        Chain alpha_leg;
        if (alpha > 0.0) {
          alpha_leg.push_back({up(issuer), cost.upload_seconds(issuer, alpha),
                               0.0, cost.upload_energy(issuer, alpha), issuer,
                               std::nullopt, true});
        }
        plan.legs.push_back(std::move(alpha_leg));
        plan.suffix.push_back(
            {bs_cpu(bs), task.cycles() / topo.base_station(bs).cpu_hz, 0.0,
             0.0, std::nullopt, bs, false});
        plan.suffix.push_back({down(issuer),
                               cost.download_seconds(issuer, result_bytes),
                               0.0,
                               cost.download_energy(issuer, result_bytes),
                               issuer, std::nullopt, true});
        break;
      }
      case Decision::kCloud: {
        plan.legs.push_back(std::move(fetch_leg));
        Chain alpha_leg;
        if (alpha > 0.0) {
          alpha_leg.push_back({up(issuer), cost.upload_seconds(issuer, alpha),
                               0.0, cost.upload_energy(issuer, alpha), issuer,
                               std::nullopt, true});
        }
        plan.legs.push_back(std::move(alpha_leg));
        const double wan_bytes = alpha + beta + result_bytes;
        // The issuer's station forwards everything over the WAN; its
        // outage severs the cloud path for the whole cluster.
        plan.suffix.push_back(
            {wan, transfer_seconds(wan_bytes, params.bs_to_cloud_rate_bps),
             params.bs_to_cloud_latency_s, cost.bs_to_cloud_energy(wan_bytes),
             std::nullopt, bs, false});
        // Cloud computation: width-unbounded, never a shared resource.
        plan.suffix.push_back(
            {nullptr, task.cycles() / params.cloud_hz, 0.0, 0.0,
             std::nullopt, std::nullopt, false});
        plan.suffix.push_back({down(issuer),
                               cost.download_seconds(issuer, result_bytes),
                               0.0,
                               cost.download_energy(issuer, result_bytes),
                               issuer, std::nullopt, true});
        break;
      }
      case Decision::kCancelled:
        break;
    }
  }

  // ---- Execute.
  MECSCHED_REQUIRE(
      options.release_times.empty() ||
          options.release_times.size() == instance.num_tasks(),
      "release_times must be empty or one per task (got " +
          std::to_string(options.release_times.size()) + " for " +
          std::to_string(instance.num_tasks()) + " tasks)");
  options.faults.validate_against(topo.num_devices(),
                                  topo.num_base_stations());
  const FaultSchedule* failure = &options.faults;

  EventQueue queue;
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    TaskTimeline& tl = result.timelines[t];
    tl.task = t;
    if (assignment.decisions[t] == Decision::kCancelled) continue;
    tl.placed = true;

    auto state = std::make_shared<TaskState>();
    state->task = t;
    state->timeline = &tl;
    state->pending_legs = static_cast<int>(plans[t].legs.size());
    state->suffix = plans[t].suffix;
    auto legs = std::make_shared<std::vector<Chain>>(plans[t].legs);

    const double release =
        options.release_times.empty() ? 0.0 : options.release_times[t];
    queue.schedule(release, [&queue, state, legs, failure](double now) {
      state->timeline->start_s = now;
      auto on_all_legs_done = [&queue, state, failure](double when) {
        auto suffix = std::make_shared<const Chain>(state->suffix);
        run_chain(queue, suffix, 0, when, state->timeline, failure,
                  [state](double finish) {
                    state->timeline->finish_s = finish;
                  });
      };
      auto leg_done = [state, on_all_legs_done](double when) {
        if (--state->pending_legs <= 0) on_all_legs_done(when);
      };
      if (legs->empty()) {
        on_all_legs_done(now);
        return;
      }
      for (const Chain& leg : *legs) {
        run_chain(queue, std::make_shared<const Chain>(leg), 0, now,
                  state->timeline, failure, leg_done);
      }
    });
  }

  result.makespan_s = queue.run();
  result.events_processed = queue.processed();
  {
    obs::Registry& reg = obs::Registry::global();
    reg.counter("sim.runs").add();
    reg.counter("sim.events_processed").add(result.events_processed);
    reg.histogram("sim.events_per_run")
        .observe(static_cast<double>(result.events_processed));
  }
  double max_finish = 0.0;
  for (const TaskTimeline& tl : result.timelines) {
    if (!tl.placed) continue;
    // Failed tasks keep the energy they burned before dying (it was really
    // spent) but contribute no completion to the makespan.
    result.total_energy_j += tl.energy_j;
    if (tl.failed) {
      ++result.failed_tasks;
      continue;
    }
    max_finish = std::max(max_finish, tl.finish_s);
  }
  result.makespan_s = max_finish;

  if (contend) {
    auto busy = [](const std::vector<Resource>& rs) {
      std::vector<double> out(rs.size());
      for (std::size_t i = 0; i < rs.size(); ++i) out[i] = rs[i].busy_time();
      return out;
    };
    result.device_uplink_busy_s = busy(servers.device_up);
    result.device_downlink_busy_s = busy(servers.device_down);
    result.device_cpu_busy_s = busy(servers.device_cpu);
    result.station_cpu_busy_s = busy(servers.station_cpu);
    result.backhaul_busy_s = servers.backhaul.busy_time();
    result.wan_busy_s = servers.wan.busy_time();
  }
  return result;
}

double SimResult::peak_utilization() const {
  if (makespan_s <= 0.0) return 0.0;
  double peak = 0.0;
  for (const auto* v : {&device_uplink_busy_s, &device_downlink_busy_s,
                        &device_cpu_busy_s, &station_cpu_busy_s}) {
    for (double b : *v) peak = std::max(peak, b);
  }
  peak = std::max({peak, backhaul_busy_s, wan_busy_s});
  return peak / makespan_s;
}

}  // namespace mecsched::sim
