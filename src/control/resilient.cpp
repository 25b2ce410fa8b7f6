#include "control/resilient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "assign/hta_instance.h"
#include "common/deadline.h"
#include "common/error.h"
#include "control/reconciler.h"
#include "dta/pipeline.h"
#include "mec/cost_model.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::control {
namespace {

using assign::Decision;
using mec::TimedTask;
using sim::FaultKind;
using sim::FaultSchedule;

// The system as the controller sees it at `now`: residual capacities net
// of the ledger's running work, zero capacity on dead hardware, radios
// re-priced by the current link factor.
mec::Topology observed_topology(const mec::Topology& base,
                                const Reconciler& ledger,
                                const FaultSchedule& faults, double now) {
  std::vector<double> device_used(base.num_devices(), 0.0);
  std::vector<double> station_used(base.num_base_stations(), 0.0);
  ledger.occupancy(now, device_used, station_used);
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

std::string to_string(TaskFate f) {
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

ResilientResult ResilientController::run(const mec::Topology& topology,
                                         const std::vector<TimedTask>& tasks,
                                         const FaultSchedule& faults,
                                         const SharedDataView* shared) const {
  MECSCHED_REQUIRE(options_.epoch_s > 0.0, "epoch length must be positive");
  // The shared waiting-room: bounded retry + exponential epoch backoff,
  // take_ready() in admission order (control/readmission.h). Its
  // constructor validates the retry options.
  ReadmissionQueue waiting(options_.readmission);
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

  // Arrivals in release order; simultaneous releases keep their input
  // order (std::sort would scramble ties, and batch order reaches the
  // solvers).
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tasks[a].release_s < tasks[b].release_s;
                   });

  Reconciler ledger;  // in-flight work
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

  // Record a placement made at `now` and enter it into the ledger.
  auto place = [&](std::size_t id, const mec::Task& t, Decision d,
                   double now, double latency, double energy) {
    ResilientTaskOutcome& o = result.outcomes[id];
    o.decision = d;
    o.start_s = now;
    o.finish_s = now + latency;
    result.total_energy_j += energy;
    result.makespan_s = std::max(result.makespan_s, o.finish_s);
    ledger.start({id, o.finish_s, d, t.id.user,
                  topology.device(t.id.user).base_station, t.resource,
                  t.external_bytes > 0.0, t.external_owner});
  };

  // DTA rescue: re-divide the task's items across owners alive at `now`.
  // Returns true and fills finish/energy on success.
  auto try_rescue = [&](std::size_t id, const mec::Task& task,
                        double residual_deadline, double now, double* finish,
                        double* energy) -> bool {
    if (shared == nullptr) return false;
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
    dta_opts.strategy = dta::DtaStrategy::kWorkload;
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
       next < order.size() || !waiting.empty() || !ledger.running().empty();
       ++epoch) {
    // One span per epoch: the controller's heartbeat in the trace. Args
    // are only rendered while a capture is live.
    const obs::ScopedTimer epoch_span(
        "controller.epoch", "control",
        obs::Tracer::global().enabled()
            ? "\"epoch\":" + std::to_string(epoch) +
                  ",\"running\":" + std::to_string(ledger.running().size()) +
                  ",\"waiting\":" + std::to_string(waiting.waiting())
            : std::string());
    const double now = static_cast<double>(epoch + 1) * epoch_s;
    const double prev = static_cast<double>(epoch) * epoch_s;

    // ---- Replay the last epoch's faults against the in-flight ledger: a
    // failed device is a leave, a failed station cuts the offloaded work
    // issued through its cell.
    for (const sim::FaultEvent& ev : faults.events_between(prev, now)) {
      Interruptions hit;
      if (ev.kind == FaultKind::kDeviceFail) {
        hit = ledger.device_left(ev.target, ev.time_s);
      } else if (ev.kind == FaultKind::kStationFail) {
        hit = ledger.station_down(ev.target, ev.time_s);
      }
      for (const std::size_t id : hit.lost_issuer) {
        give_up(id, TaskFate::kLostIssuer);
      }
      for (const std::size_t id : hit.orphaned) {
        ++result.orphaned;
        backoff_or_fail(id, result.outcomes[id].attempts, epoch);
      }
    }

    // ---- Completions free their reservations.
    for (const std::size_t id : ledger.collect_completions(now)) {
      result.outcomes[id].fate = TaskFate::kCompleted;
      ++result.completed;
    }

    // ---- Admit new arrivals.
    while (next < order.size() && tasks[order[next]].release_s <= now) {
      waiting.admit(order[next++], epoch);
    }

    // ---- Pull this epoch's batch out of the waiting room.
    const std::vector<ReadmissionEntry> batch = waiting.take_ready(epoch);
    if (batch.empty()) continue;
    ++result.epochs;

    const mec::Topology observed =
        observed_topology(topology, ledger, faults, now);
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
          tracer.instant("controller.rescued_by_dta", "control",
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
        // The ledger already holds the local runs placed earlier in this
        // pass.
        double used = 0.0;
        for (const RunningTask& r : ledger.running()) {
          if (r.where == Decision::kLocal && r.issuer == issuer) {
            used += r.resource;
          }
        }
        const bool fits =
            used + tt.task.resource <= topology.device(issuer).max_resource;
        if (fetch_routable && fits && local.latency_s() <= residual) {
          place(w.id, tt.task, Decision::kLocal, now, local.latency_s(),
                local.energy_j);
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
    obs::Registry::global()
        .histogram("controller.decision_ms")
        .observe(decision_ms);
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
      place(w.id, instance.task(i), d, now, instance.latency(i, p),
            instance.energy(i, p));
    }
  }

  // Mean response over completed tasks, summed in release order.
  double response_sum = 0.0;
  for (const std::size_t id : order) {
    const ResilientTaskOutcome& o = result.outcomes[id];
    MECSCHED_REQUIRE(o.fate != TaskFate::kPending,
                     "internal: task left pending after the epoch loop");
    if (o.fate == TaskFate::kCompleted || o.fate == TaskFate::kRescuedByDta) {
      response_sum += o.finish_s - tasks[id].release_s;
    }
  }
  result.retries = waiting.retries();
  result.unsatisfied = result.outcomes.size() - result.completed;
  result.mean_response_s =
      result.completed == 0
          ? 0.0
          : response_sum / static_cast<double>(result.completed);

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
