#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "assign/hta_instance.h"
#include "common/error.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "obs/window.h"
#include "serve/population.h"
#include "serve/reconciler.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using control::ReadmissionEntry;

double wall_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// What one shard solve hands back to the epoch loop.
struct ShardOutcome {
  assign::Assignment plan;
  control::FallbackRung rung = control::FallbackRung::kLpHta;
  // Chosen-placement costs per shard task (0 for cancelled entries).
  std::vector<double> latency_s;
  std::vector<double> energy_j;
};

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {}

ServeResult ServeDaemon::run(const mec::Topology& universe, const Trace& trace,
                             DecisionLog* log,
                             const CancellationToken& stop) const {
  MECSCHED_REQUIRE(std::isfinite(options_.epoch_budget_ms) &&
                       options_.epoch_budget_ms >= 0.0,
                   "epoch_budget_ms must be finite and non-negative");
  trace.validate_against(universe.num_devices(), universe.num_base_stations());

  ServeResult result;
  Population pop(universe);
  Reconciler recon;
  control::ReadmissionQueue waiting(options_.readmission);
  IngestCursor cursor(trace, options_.batching);
  AdmissionControl admission(options_.admission);
  const Sharder sharder(universe, options_.sharding);
  exec::ThreadPool pool(options_.jobs);
  const control::FallbackChain chain(options_.lp);
  std::vector<PendingTask> pending;  // id = index, append-only

  obs::Registry& reg = obs::Registry::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const obs::ScopedTimer run_span("serve.run", "serve");

  const double budget_s = options_.epoch_budget_ms * 1e-3;
  const std::size_t nd = universe.num_devices();
  const std::size_t ns = universe.num_base_stations();
  double now = 0.0;
  std::size_t epoch = 0;

  auto append = [&](double t, const mec::TaskId& id, DecisionKind kind,
                    std::size_t attempt) {
    if (log != nullptr) {
      log->append({epoch, t, id, kind, 0, Decision::kCancelled, attempt,
                   0.0, 0.0});
    }
  };

  // Re-admit with backoff, or settle as exhausted.
  auto retry_or_exhaust = [&](std::size_t id, double t) {
    const PendingTask& p = pending[id];
    if (waiting.retry(id, p.attempts, epoch)) {
      append(t, p.task.id, DecisionKind::kRetry, p.attempts);
    } else {
      ++result.exhausted;
      append(t, p.task.id, DecisionKind::kExhausted, p.attempts);
    }
  };

  for (;; ++epoch) {
    if (stop.expired()) {
      // Graceful stop: settle everything still open so the log accounts
      // for every admitted task — waiting room first (admission order),
      // then in-flight work (start order).
      result.stopped_early = true;
      for (const ReadmissionEntry& w : waiting.take_ready(
               std::numeric_limits<std::size_t>::max())) {
        ++result.abandoned;
        append(now, pending[w.id].task.id, DecisionKind::kAbandoned,
               pending[w.id].attempts);
      }
      for (const RunningTask& r : recon.running()) {
        ++result.abandoned;
        append(now, pending[r.id].task.id, DecisionKind::kAbandoned,
               pending[r.id].attempts);
      }
      break;
    }
    if (cursor.exhausted() && waiting.empty() && recon.running().empty()) {
      break;
    }

    const obs::ScopedTimer epoch_span(
        "serve.epoch", "serve",
        obs::Tracer::global().enabled()
            ? "\"epoch\":" + std::to_string(epoch) +
                  ",\"running\":" + std::to_string(recon.running().size()) +
                  ",\"waiting\":" + std::to_string(waiting.waiting())
            : std::string());

    // ---- 1. Ingest: close the window, replay its events in trace order.
    Window w = cursor.next_window(now);
    now = w.close_s;
    result.virtual_now_s = now;
    for (const Event& e : w.events) {
      ++result.events;
      if (e.kind == EventKind::kTaskArrival) {
        ++result.arrivals;
        if (admission.offer(waiting.waiting())) {
          const std::size_t id = pending.size();
          pending.push_back(PendingTask{id, e.task, e.time_s, 0});
          waiting.admit(id, epoch);
        } else {
          append(e.time_s, e.task.id, DecisionKind::kReject, 0);
        }
      } else {
        const Interruptions hit = recon.observe(e);
        for (const std::size_t id : hit.lost_issuer) {
          ++result.lost_issuer;
          append(e.time_s, pending[id].task.id, DecisionKind::kLostIssuer,
                 pending[id].attempts);
        }
        for (const std::size_t id : hit.orphaned) {
          ++result.orphaned;
          retry_or_exhaust(id, e.time_s);
        }
        pop.apply(e);
      }
    }

    // ---- Completions free their reservations.
    result.completed += recon.collect_completions(now).size();

    ++result.epochs;

    // ---- 2. Triage the epoch batch.
    const std::vector<ReadmissionEntry> ready = waiting.take_ready(epoch);
    reg.gauge("serve.queue.depth")
        .set(static_cast<double>(waiting.waiting()));
    if (ready.empty()) continue;

    std::vector<const PendingTask*> batch;
    std::vector<double> residuals;
    for (const ReadmissionEntry& wte : ready) {
      PendingTask& p = pending[wte.id];
      p.attempts = wte.attempts + 1;
      // Residual slack, net of the time this epoch's decision is allowed
      // to burn (the configured budget, for determinism).
      const double residual =
          p.task.deadline_s - (now - p.arrival_s) - budget_s;
      if (residual <= 0.0) {
        ++result.expired;
        append(now, p.task.id, DecisionKind::kExpire, p.attempts);
        continue;
      }
      if (!pop.up(p.task.id.user)) {
        ++result.lost_issuer;
        append(now, p.task.id, DecisionKind::kLostIssuer, p.attempts);
        continue;
      }
      if (p.task.external_bytes > 0.0 && !pop.up(p.task.external_owner)) {
        // The owner may rejoin; park the task.
        retry_or_exhaust(wte.id, now);
        continue;
      }
      batch.push_back(&p);
      residuals.push_back(residual);
    }
    if (batch.empty()) continue;
    ++result.decide_epochs;

    // ---- 3. Shard against the residual system.
    std::vector<double> dev_res(nd);
    std::vector<double> st_res(ns);
    {
      std::vector<double> dev_used(nd, 0.0);
      std::vector<double> st_used(ns, 0.0);
      recon.occupancy(now, dev_used, st_used);
      for (std::size_t g = 0; g < nd; ++g) {
        dev_res[g] = universe.device(g).max_resource - dev_used[g];
      }
      for (std::size_t b = 0; b < ns; ++b) {
        st_res[b] = universe.base_station(b).max_resource - st_used[b];
      }
    }
    const std::vector<ShardProblem> shards =
        sharder.build(pop, dev_res, st_res, batch, residuals);

    // ---- 4. Solve every shard in parallel under one epoch deadline.
    CancellationToken epoch_token = stop;
    if (options_.epoch_budget_ms > 0.0) {
      epoch_token =
          stop.with_deadline(Deadline::after_ms(options_.epoch_budget_ms));
    }
    auto solve_shard = [&](const ShardProblem& sp) -> ShardOutcome {
      const auto t0 = std::chrono::steady_clock::now();
      const assign::HtaInstance inst(sp.topology, sp.tasks);
      ShardOutcome oc;
      oc.plan = chain.assign(inst, oc.rung, epoch_token);
      oc.latency_s.assign(sp.tasks.size(), 0.0);
      oc.energy_j.assign(sp.tasks.size(), 0.0);
      for (std::size_t t = 0; t < sp.tasks.size(); ++t) {
        if (oc.plan.decisions[t] == Decision::kCancelled) continue;
        const mec::Placement pl = assign::to_placement(oc.plan.decisions[t]);
        oc.latency_s[t] = inst.latency(t, pl);
        oc.energy_j[t] = inst.energy(t, pl);
      }
      if (flight.enabled()) {
        obs::SolveRecord rec;
        rec.layer = "serve";
        rec.engine = "shard";
        rec.status = control::to_string(oc.rung);
        rec.detail = "epoch " + std::to_string(epoch) + " shard " +
                     std::to_string(sp.shard);
        rec.seconds = wall_ms(t0) * 1e-3;
        rec.iterations = sp.tasks.size();
        rec.deadline_residual_ms =
            obs::FlightRecorder::residual_ms(epoch_token.deadline());
        rec.deadline_hit = epoch_token.expired();
        flight.record(std::move(rec));
      }
      return oc;
    };

    const auto solve_t0 = std::chrono::steady_clock::now();
    std::vector<std::future<ShardOutcome>> futures;
    futures.reserve(shards.size());
    for (const ShardProblem& sp : shards) {
      futures.push_back(
          pool.submit([&solve_shard, &sp] { return solve_shard(sp); }));
    }
    std::vector<ShardOutcome> outcomes;
    outcomes.reserve(shards.size());
    for (std::future<ShardOutcome>& f : futures) {
      outcomes.push_back(f.get());  // shard order, not finish order
    }
    const double solve_ms = wall_ms(solve_t0);
    reg.histogram("serve.epoch.solve_ms").observe(solve_ms);
    reg.window("serve.epoch.solve_ms").observe(solve_ms);
    if (options_.epoch_budget_ms > 0.0 && epoch_token.expired()) {
      reg.counter("serve.epoch.budget_expired").add();
    }

    // ---- 5. Apply in shard order: the decision log never sees the
    // worker schedule.
    for (std::size_t i = 0; i < shards.size(); ++i) {
      const ShardProblem& sp = shards[i];
      const ShardOutcome& oc = outcomes[i];
      ++result.shard_solves;
      ++result.rungs[oc.rung];
      for (std::size_t t = 0; t < sp.tasks.size(); ++t) {
        const std::size_t id = sp.task_ids[t];
        const PendingTask& p = pending[id];
        const Decision d = oc.plan.decisions[t];
        if (d == Decision::kCancelled) {
          retry_or_exhaust(id, now);
          continue;
        }
        const double finish = now + oc.latency_s[t];
        const double wait_s = now - p.arrival_s;
        result.total_energy_j += oc.energy_j[t];
        result.makespan_s = std::max(result.makespan_s, finish);
        ++result.decisions;
        recon.start({id, finish, d, p.task.id.user,
                     pop.station(p.task.id.user), p.task.resource,
                     p.task.external_bytes > 0.0, p.task.external_owner});
        if (log != nullptr) {
          log->append({epoch, now, p.task.id, DecisionKind::kDecide,
                       sp.shard, d, p.attempts, wait_s, oc.energy_j[t]});
        }
        reg.histogram("serve.admit_to_decision_ms").observe(wait_s * 1e3);
        reg.window("serve.admit_to_decision_ms").observe(wait_s * 1e3);
        reg.rate("serve.decisions").record();
      }
    }
  }

  result.admitted = admission.admitted();
  result.rejected = admission.rejected();
  result.retries = waiting.retries();

  reg.counter("serve.runs").add();
  reg.counter("serve.events.ingested").add(result.events);
  reg.counter("serve.arrivals").add(result.arrivals);
  reg.counter("serve.admission.admitted").add(result.admitted);
  reg.counter("serve.admission.rejected").add(result.rejected);
  reg.counter("serve.epochs").add(result.epochs);
  reg.counter("serve.decisions").add(result.decisions);
  reg.counter("serve.completed").add(result.completed);
  reg.counter("serve.expired").add(result.expired);
  reg.counter("serve.lost_issuer").add(result.lost_issuer);
  reg.counter("serve.exhausted").add(result.exhausted);
  reg.counter("serve.orphans").add(result.orphaned);
  reg.counter("serve.readmissions").add(result.retries);
  reg.counter("serve.abandoned").add(result.abandoned);
  reg.counter("serve.shard_solves").add(result.shard_solves);
  return result;
}

}  // namespace mecsched::serve
