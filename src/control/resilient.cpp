#include "control/resilient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/deadline.h"

#include "assign/hta_instance.h"
#include "common/error.h"
#include "control/readmission.h"
#include "mec/cost_model.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "obs/window.h"

namespace mecsched::control {
namespace {

using assign::Decision;
using assign::TimedTask;
using sim::FaultKind;
using sim::FaultSchedule;

std::string fate_name(TaskFate f) {
  switch (f) {
    case TaskFate::kPending:
      return "pending";
    case TaskFate::kCompleted:
      return "completed";
    case TaskFate::kRescuedByDta:
      return "rescued-by-dta";
    case TaskFate::kLostIssuer:
      return "lost-issuer";
    case TaskFate::kDeadlineExpired:
      return "deadline-expired";
    case TaskFate::kRetriesExhausted:
      return "retries-exhausted";
  }
  return "unknown";
}

// A task occupying capacity somewhere (mirrors assign/online.cpp).
struct Running {
  std::size_t id = 0;  // input index
  double finish_s = 0.0;
  Decision where = Decision::kCancelled;
  std::size_t issuer = 0;
  std::size_t station = 0;  // issuer's serving station
  double resource = 0.0;
  bool has_external = false;
  std::size_t owner = 0;  // external data owner (valid if has_external)
};

// The system as the controller sees it at `now`: residual capacities minus
// running occupancy, zero capacity on dead hardware, radios re-priced by
// the current link factor.
mec::Topology observed_topology(const mec::Topology& base,
                                const std::vector<Running>& running,
                                const FaultSchedule& faults, double now) {
  std::vector<double> device_used(base.num_devices(), 0.0);
  std::vector<double> station_used(base.num_base_stations(), 0.0);
  for (const Running& r : running) {
    if (r.finish_s <= now) continue;
    if (r.where == Decision::kLocal) device_used[r.issuer] += r.resource;
    if (r.where == Decision::kEdge) station_used[r.station] += r.resource;
  }
  std::vector<mec::Device> devices;
  devices.reserve(base.num_devices());
  for (std::size_t i = 0; i < base.num_devices(); ++i) {
    mec::Device d = base.device(i);
    d.max_resource = faults.device_up(i, now)
                         ? std::max(0.0, d.max_resource - device_used[i])
                         : 0.0;
    const double factor = faults.link_factor(i, now);
    d.radio.upload_bps *= factor;
    d.radio.download_bps *= factor;
    devices.push_back(d);
  }
  std::vector<mec::BaseStation> stations;
  stations.reserve(base.num_base_stations());
  for (std::size_t b = 0; b < base.num_base_stations(); ++b) {
    mec::BaseStation s = base.base_station(b);
    s.max_resource = faults.station_up(b, now)
                         ? std::max(0.0, s.max_resource - station_used[b])
                         : 0.0;
    stations.push_back(s);
  }
  return mec::Topology(std::move(devices), std::move(stations), base.params());
}

}  // namespace

std::string to_string(TaskFate f) { return fate_name(f); }

ResilientResult ResilientController::run(const mec::Topology& topology,
                                         const std::vector<TimedTask>& tasks,
                                         const FaultSchedule& faults,
                                         const SharedDataView* shared) const {
  MECSCHED_REQUIRE(options_.epoch_s > 0.0, "epoch length must be positive");
  MECSCHED_REQUIRE(options_.max_attempts >= 1,
                   "max_attempts must be >= 1, got " +
                       std::to_string(options_.max_attempts));
  MECSCHED_REQUIRE(options_.backoff_base_epochs >= 1,
                   "backoff_base_epochs must be >= 1, got " +
                       std::to_string(options_.backoff_base_epochs));
  MECSCHED_REQUIRE(std::isfinite(options_.decision_budget_ms) &&
                       options_.decision_budget_ms >= 0.0,
                   "decision_budget_ms must be finite and non-negative");
  faults.validate_against(topology.num_devices(),
                          topology.num_base_stations());
  if (shared != nullptr) {
    MECSCHED_REQUIRE(shared->task_items.size() == tasks.size(),
                     "SharedDataView::task_items must align with tasks (" +
                         std::to_string(shared->task_items.size()) + " vs " +
                         std::to_string(tasks.size()) + ")");
    MECSCHED_REQUIRE(
        shared->ownership.size() == topology.num_devices(),
        "SharedDataView::ownership must have one set per device (" +
            std::to_string(shared->ownership.size()) + " vs " +
            std::to_string(topology.num_devices()) + ")");
  }

  ResilientResult result;
  result.outcomes.assign(tasks.size(), ResilientTaskOutcome{});
  if (tasks.empty()) return result;

  // Arrivals in release order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].release_s < tasks[b].release_s;
  });

  std::vector<Running> running;
  // The shared waiting-room: bounded retry + exponential epoch backoff,
  // take_ready() in admission order (control/readmission.h).
  ReadmissionQueue waiting(
      {options_.max_attempts, options_.backoff_base_epochs});
  std::size_t next = 0;  // index into `order`

  const double epoch_s = options_.epoch_s;
  const FallbackChain chain(options_.lp);

  // Settle a task that cannot complete.
  auto give_up = [&](std::size_t id, TaskFate fate) {
    result.outcomes[id].fate = fate;
    result.outcomes[id].decision = Decision::kCancelled;
  };

  // Re-admit after a failed attempt, or give up when attempts are gone.
  auto backoff_or_fail = [&](std::size_t id, std::size_t attempts,
                             std::size_t epoch) {
    if (!waiting.retry(id, attempts, epoch)) {
      give_up(id, TaskFate::kRetriesExhausted);
    }
  };

  // DTA rescue: re-divide the task's items across owners alive at `now`.
  // Returns true and fills finish/energy on success.
  auto try_rescue = [&](std::size_t id, const mec::Task& task,
                        double residual_deadline, double now, double* finish,
                        double* energy) -> bool {
    if (!options_.dta_rescue || shared == nullptr) return false;
    const dta::ItemSet& items = shared->task_items[id];
    if (items.empty()) return false;

    // Ownership restricted to live devices; bail if an item is lost.
    std::vector<dta::ItemSet> alive_ownership(shared->ownership.size());
    for (std::size_t dev = 0; dev < shared->ownership.size(); ++dev) {
      if (faults.device_up(dev, now)) {
        alive_ownership[dev] = shared->ownership[dev];
      }
    }
    dta::ItemSet covered;
    for (const dta::ItemSet& own : alive_ownership) {
      covered = dta::set_union(covered, own);
    }
    if (!dta::set_minus(items, covered).empty()) return false;

    dta::DivisibleTask div;
    div.id = task.id;
    div.items = items;
    div.cycles_per_byte = task.cycles_per_byte;
    div.result_kind = task.result_kind;
    div.result_ratio = task.result_ratio;
    div.result_const_bytes = task.result_const_bytes;
    div.resource = task.resource;
    div.deadline_s = residual_deadline;

    dta::SharedDataScenario scenario{topology,
                                     dta::DataUniverse(shared->item_bytes),
                                     std::move(alive_ownership),
                                     {div}};
    dta::DtaOptions dta_opts;
    dta_opts.strategy = options_.rescue_strategy;
    // The greedy partial scheduler cannot throw SolverError; rescue must
    // stay on the no-abort path.
    dta_opts.scheduler = dta::PartialScheduler::kLocalGreedy;
    const dta::DtaResult rescue = dta::run_dta(scenario, dta_opts);
    if (rescue.partials_cancelled > 0 ||
        rescue.partials_deadline_violations > 0 ||
        rescue.processing_time_s > residual_deadline) {
      return false;
    }
    *finish = now + rescue.processing_time_s;
    *energy = rescue.total_energy_j;
    return true;
  };

  const obs::ScopedTimer run_span("controller.run", "control");

  for (std::size_t epoch = 0;
       next < order.size() || !waiting.empty() || !running.empty(); ++epoch) {
    // One span per epoch: the controller's heartbeat in the trace. Args
    // are only rendered while a capture is live.
    const obs::ScopedTimer epoch_span(
        "controller.epoch", "control",
        obs::Tracer::global().enabled()
            ? "\"epoch\":" + std::to_string(epoch) +
                  ",\"running\":" + std::to_string(running.size()) +
                  ",\"waiting\":" + std::to_string(waiting.waiting())
            : std::string());
    const double now = static_cast<double>(epoch + 1) * epoch_s;
    const double prev = static_cast<double>(epoch) * epoch_s;

    // ---- Observe faults that hit running tasks during the last epoch.
    for (const sim::FaultEvent& ev : faults.events_between(prev, now)) {
      std::vector<Running> keep;
      keep.reserve(running.size());
      for (Running& r : running) {
        if (r.finish_s <= ev.time_s) {  // already finished when it struck
          keep.push_back(r);
          continue;
        }
        const bool issuer_died =
            ev.kind == FaultKind::kDeviceFail && ev.target == r.issuer;
        const bool owner_died = ev.kind == FaultKind::kDeviceFail &&
                                r.has_external && ev.target == r.owner;
        const bool path_died = ev.kind == FaultKind::kStationFail &&
                               ev.target == r.station &&
                               r.where != Decision::kLocal;
        if (issuer_died) {
          give_up(r.id, TaskFate::kLostIssuer);
        } else if (owner_died || path_died) {
          ++result.orphaned;
          backoff_or_fail(r.id, result.outcomes[r.id].attempts, epoch);
        } else {
          keep.push_back(r);
        }
      }
      running.swap(keep);
    }

    // ---- Completions free their reservations.
    for (const Running& r : running) {
      if (r.finish_s <= now && result.outcomes[r.id].fate == TaskFate::kPending) {
        result.outcomes[r.id].fate = TaskFate::kCompleted;
        ++result.completed;
      }
    }
    running.erase(std::remove_if(running.begin(), running.end(),
                                 [now](const Running& r) {
                                   return r.finish_s <= now;
                                 }),
                  running.end());

    // ---- Admit new arrivals.
    while (next < order.size() && tasks[order[next]].release_s <= now) {
      waiting.admit(order[next++], epoch);
    }

    // ---- Pull this epoch's batch out of the waiting room.
    const std::vector<ReadmissionEntry> batch = waiting.take_ready(epoch);
    if (batch.empty()) continue;
    ++result.epochs;

    const mec::Topology observed =
        observed_topology(topology, running, faults, now);
    const mec::CostModel observed_cost(observed);

    // ---- Triage: dead issuers, dead owners (rescue), dark cells.
    std::vector<ReadmissionEntry> lp_batch;
    std::vector<mec::Task> lp_tasks;
    for (const ReadmissionEntry& w : batch) {
      const TimedTask& tt = tasks[w.id];
      const std::size_t issuer = tt.task.id.user;
      // Residual slack, net of the time this epoch's decision is allowed
      // to burn: the scheduler's own thinking time is part of the task's
      // latency budget.
      const double residual = tt.task.deadline_s - (now - tt.release_s) -
                              options_.decision_budget_ms * 1e-3;
      const std::size_t attempts_after = w.attempts + 1;
      result.outcomes[w.id].attempts = attempts_after;

      if (residual <= 0.0) {
        give_up(w.id, TaskFate::kDeadlineExpired);
        continue;
      }
      if (!faults.device_up(issuer, now)) {
        // Truly lost: nobody is left to receive the result.
        give_up(w.id, TaskFate::kLostIssuer);
        continue;
      }

      const bool owner_down = tt.task.external_bytes > 0.0 &&
                              !faults.device_up(tt.task.external_owner, now);
      if (owner_down) {
        double finish = 0.0;
        double energy = 0.0;
        if (try_rescue(w.id, tt.task, residual, now, &finish, &energy)) {
          ResilientTaskOutcome& o = result.outcomes[w.id];
          o.fate = TaskFate::kRescuedByDta;
          o.decision = Decision::kLocal;  // partials run on the survivors
          o.start_s = now;
          o.finish_s = finish;
          result.total_energy_j += energy;
          result.makespan_s = std::max(result.makespan_s, finish);
          ++result.completed;
          ++result.rescued_by_dta;
          obs::Tracer& tracer = obs::Tracer::global();
          tracer.instant("controller.dta_rescue", "control",
                         tracer.enabled()
                             ? "\"task\":" + std::to_string(w.id)
                             : std::string());
          continue;
        }
        // The owner may come back; wait for it.
        backoff_or_fail(w.id, attempts_after, epoch);
        continue;
      }

      const std::size_t bs = topology.device(issuer).base_station;
      if (!faults.station_up(bs, now)) {
        // The cell is dark: only fully-local execution is possible, and
        // only if the external data (if any) sits in the same cluster is
        // the fetch even routable. Otherwise wait for the cell.
        const bool fetch_routable =
            tt.task.external_bytes <= 0.0 ||
            topology.same_cluster(tt.task.external_owner, issuer);
        const mec::CostEntry local =
            observed_cost.evaluate(tt.task, mec::Placement::kLocal);
        double used = 0.0;
        for (const Running& r : running) {
          if (r.where == Decision::kLocal && r.issuer == issuer) {
            used += r.resource;
          }
        }
        const bool fits =
            used + tt.task.resource <= topology.device(issuer).max_resource;
        if (fetch_routable && fits && local.latency_s() <= residual) {
          ResilientTaskOutcome& o = result.outcomes[w.id];
          o.decision = Decision::kLocal;
          o.start_s = now;
          o.finish_s = now + local.latency_s();
          result.total_energy_j += local.energy_j;
          result.makespan_s = std::max(result.makespan_s, o.finish_s);
          running.push_back({w.id, o.finish_s, Decision::kLocal, issuer, bs,
                             tt.task.resource, tt.task.external_bytes > 0.0,
                             tt.task.external_owner});
          continue;
        }
        backoff_or_fail(w.id, attempts_after, epoch);
        continue;
      }

      mec::Task t = tt.task;
      t.deadline_s = residual;
      lp_batch.push_back(w);
      lp_tasks.push_back(t);
    }

    // ---- Schedule the healthy batch through the fallback chain.
    if (lp_tasks.empty()) continue;
    const assign::HtaInstance instance(observed, std::move(lp_tasks));
    FallbackRung rung = FallbackRung::kLocalFirst;
    CancellationToken epoch_token;
    if (options_.decision_budget_ms > 0.0) {
      epoch_token =
          CancellationToken(Deadline::after_ms(options_.decision_budget_ms));
    }
    const auto decide_start = std::chrono::steady_clock::now();
    const assign::Assignment plan =
        chain.assign(instance, rung, epoch_token);
    const double decision_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - decide_start)
            .count();
    obs::Registry& obs_reg = obs::Registry::global();
    obs_reg.histogram("controller.decision_ms").observe(decision_ms);
    obs_reg.window("controller.decision_ms").observe(decision_ms);
    obs_reg.rate("controller.decisions").record();
    obs::FlightRecorder& flight = obs::FlightRecorder::global();
    if (flight.enabled()) {
      obs::SolveRecord rec;
      rec.layer = "control";
      rec.engine = "decision";
      rec.status = to_string(rung);
      rec.detail = "epoch " + std::to_string(epoch);
      rec.seconds = decision_ms * 1e-3;
      rec.iterations = instance.num_tasks();
      rec.deadline_residual_ms =
          obs::FlightRecorder::residual_ms(epoch_token.deadline());
      rec.deadline_hit = epoch_token.expired();
      flight.record(std::move(rec));
    }
    ++result.rungs[rung];

    for (std::size_t i = 0; i < lp_batch.size(); ++i) {
      const ReadmissionEntry& w = lp_batch[i];
      const Decision d = plan.decisions[i];
      if (d == Decision::kCancelled) {
        backoff_or_fail(w.id, w.attempts + 1, epoch);
        continue;
      }
      const mec::Placement p = assign::to_placement(d);
      const double latency = instance.latency(i, p);
      ResilientTaskOutcome& o = result.outcomes[w.id];
      o.decision = d;
      o.start_s = now;
      o.finish_s = now + latency;
      result.total_energy_j += instance.energy(i, p);
      result.makespan_s = std::max(result.makespan_s, o.finish_s);
      const mec::Task& t = instance.task(i);
      running.push_back({w.id, o.finish_s, d, t.id.user,
                         topology.device(t.id.user).base_station, t.resource,
                         t.external_bytes > 0.0, t.external_owner});
    }
  }

  for (const ResilientTaskOutcome& o : result.outcomes) {
    MECSCHED_REQUIRE(o.fate != TaskFate::kPending,
                     "internal: task left pending after the epoch loop");
  }
  result.retries = waiting.retries();
  result.unsatisfied = result.outcomes.size() - result.completed;

  obs::Registry& reg = obs::Registry::global();
  reg.counter("controller.runs").add();
  reg.counter("controller.epochs").add(result.epochs);
  reg.counter("controller.completed").add(result.completed);
  reg.counter("controller.unsatisfied").add(result.unsatisfied);
  reg.counter("controller.orphaned").add(result.orphaned);
  reg.counter("controller.retries").add(result.retries);
  reg.counter("controller.rescued_by_dta").add(result.rescued_by_dta);
  return result;
}

}  // namespace mecsched::control
