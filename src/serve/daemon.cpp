#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assign/hta_instance.h"
#include "common/error.h"
#include "control/reconciler.h"
#include "dta/pipeline.h"
#include "exec/thread_pool.h"
#include "mec/cost_model.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "serve/population.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using control::ReadmissionEntry;
using control::RunningTask;

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

// The universe as it is now: devices in their current cells on their
// current radios. A dark-cell task's local placement is priced on it.
mec::Topology live_universe(const mec::Topology& universe,
                            const Population& pop) {
  std::vector<mec::Device> devices;
  devices.reserve(universe.num_devices());
  for (std::size_t i = 0; i < universe.num_devices(); ++i) {
    mec::Device d = universe.device(i);
    d.base_station = pop.station(i);
    const double factor = pop.link_factor(i);
    d.radio.upload_bps *= factor;
    d.radio.download_bps *= factor;
    devices.push_back(d);
  }
  std::vector<mec::BaseStation> stations;
  stations.reserve(universe.num_base_stations());
  for (std::size_t b = 0; b < universe.num_base_stations(); ++b) {
    stations.push_back(universe.base_station(b));
  }
  return mec::Topology(std::move(devices), std::move(stations),
                       universe.params());
}

struct Rescue {
  double seconds = 0.0;
  double energy_j = 0.0;
};

// DTA rescue: re-divides the task's items across the devices up now.
// Empty when an item has no live holder or the division misses the
// residual deadline.
std::optional<Rescue> rescue(const mec::Topology& universe,
                             const Population& pop,
                             const SharedDataView& shared,
                             const dta::ItemSet& items, const mec::Task& task,
                             double residual_s) {
  if (items.empty()) return std::nullopt;
  std::vector<dta::ItemSet> alive_ownership(shared.ownership.size());
  dta::ItemSet covered;
  for (std::size_t dev = 0; dev < shared.ownership.size(); ++dev) {
    if (!pop.up(dev)) continue;
    alive_ownership[dev] = shared.ownership[dev];
    covered = dta::set_union(covered, alive_ownership[dev]);
  }
  if (!dta::set_minus(items, covered).empty()) return std::nullopt;

  dta::DivisibleTask div;
  div.id = task.id;
  div.items = items;
  div.cycles_per_byte = task.cycles_per_byte;
  div.result_kind = task.result_kind;
  div.result_ratio = task.result_ratio;
  div.result_const_bytes = task.result_const_bytes;
  div.resource = task.resource;
  div.deadline_s = residual_s;

  dta::SharedDataScenario scenario{universe,
                                   dta::DataUniverse(shared.item_bytes),
                                   std::move(alive_ownership),
                                   {div}};
  dta::DtaOptions opts;
  opts.strategy = dta::DtaStrategy::kWorkload;
  // The greedy partial scheduler cannot throw SolverError; the rescue
  // must stay on the no-abort path.
  opts.scheduler = dta::PartialScheduler::kLocalGreedy;
  const dta::DtaResult r = dta::run_dta(scenario, opts);
  if (r.partials_cancelled > 0 || r.partials_deadline_violations > 0 ||
      r.processing_time_s > residual_s) {
    return std::nullopt;
  }
  return Rescue{r.processing_time_s, r.total_energy_j};
}

}  // namespace

ServeDaemon::ServeDaemon(ServeOptions options) : options_(std::move(options)) {}

ServeResult ServeDaemon::run(const mec::Topology& universe, const Trace& trace,
                             DecisionLog* log, const CancellationToken& stop,
                             const SharedDataView* shared) const {
  MECSCHED_REQUIRE(std::isfinite(options_.epoch_budget_ms) &&
                       options_.epoch_budget_ms >= 0.0,
                   "epoch_budget_ms must be finite and non-negative");
  trace.validate_against(universe.num_devices(), universe.num_base_stations());
  if (shared != nullptr) {
    MECSCHED_REQUIRE(shared->task_items.size() == trace.arrivals(),
                     "SharedDataView::task_items must have one set per "
                     "arrival (" +
                         std::to_string(shared->task_items.size()) + " vs " +
                         std::to_string(trace.arrivals()) + ")");
    MECSCHED_REQUIRE(
        shared->ownership.size() == universe.num_devices(),
        "SharedDataView::ownership must have one set per device (" +
            std::to_string(shared->ownership.size()) + " vs " +
            std::to_string(universe.num_devices()) + ")");
  }

  ServeResult result;
  Population pop(universe);
  control::Reconciler recon;
  control::ReadmissionQueue waiting(options_.readmission);
  IngestCursor cursor(trace, options_.batching);
  AdmissionControl admission(options_.admission);
  const Sharder sharder(universe, options_.sharding);
  // Shard solves run on a pool of at most one worker per shard; a single
  // shard is solved on this thread.
  std::optional<exec::ThreadPool> pool;
  if (sharder.num_shards() > 1) {
    pool.emplace(std::min(
        options_.jobs == 0 ? exec::ThreadPool::default_jobs() : options_.jobs,
        sharder.num_shards()));
  }
  const control::FallbackChain chain(options_.lp);
  // One slot per arrival, rejected ones included, so an id is the
  // arrival's ordinal in the trace. Reserved up front: growing by doubling
  // would copy the vector and briefly hold old and new buffers, the run's
  // memory peak.
  std::vector<PendingTask> pending;
  pending.reserve(trace.arrivals());

  obs::Registry& reg = obs::Registry::global();
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const obs::ScopedTimer run_span("serve.run", "serve");

  const double budget_s = options_.epoch_budget_ms * 1e-3;
  const std::size_t nd = universe.num_devices();
  const std::size_t ns = universe.num_base_stations();
  double now = 0.0;
  std::size_t epoch = 0;
  std::size_t shard_devices = 0;  // devices materialized into shards
  std::vector<double> waits_ms;   // one epoch's admit-to-decision waits

  auto append = [&](double t, const mec::TaskId& id, DecisionKind kind,
                    std::size_t attempt) {
    if (log != nullptr) {
      log->append({epoch, t, id, kind, Decision::kCancelled, 0, attempt, 0.0,
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

  // Start a placement made now: it runs until its analytic finish.
  auto start = [&](std::size_t id, Decision d, std::size_t shard,
                   double latency_s, double energy_j) {
    const PendingTask& p = pending[id];
    const double finish = now + latency_s;
    const double wait_s = now - p.arrival_s;
    result.total_energy_j += energy_j;
    result.makespan_s = std::max(result.makespan_s, finish);
    ++result.decisions;
    const std::size_t issuer = p.task.id.user;
    recon.start({id, finish, d, issuer, pop.station(issuer), p.task.resource,
                 p.task.external_bytes > 0.0, p.task.external_owner});
    if (log != nullptr) {
      log->append({epoch, now, p.task.id, DecisionKind::kDecide, d, shard,
                   p.attempts, wait_s, energy_j, finish});
    }
    waits_ms.push_back(wait_s * 1e3);
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
    // Done once every arrival is in and settled: churn left in the trace
    // after that can interrupt nothing.
    if (result.arrivals == trace.arrivals() && waiting.empty() &&
        recon.running().empty()) {
      break;
    }

    const obs::ScopedTimer epoch_span(
        "serve.epoch", "serve",
        obs::Tracer::global().enabled()
            ? "\"epoch\":" + std::to_string(epoch) +
                  ",\"running\":" + std::to_string(recon.running().size()) +
                  ",\"waiting\":" + std::to_string(waiting.waiting())
            : std::string());
    // One span per stage, nested in the epoch span; each stage's
    // emplace() closes the previous one.
    std::optional<obs::ScopedTimer> stage;
    stage.emplace("serve.stage.ingest", "serve");

    // ---- 1. Ingest: close the window, replay its events in trace order.
    Window w = cursor.next_window();
    now = w.close_s;
    result.virtual_now_s = now;
    for (const Event& e : w.events) {
      ++result.events;
      if (e.kind == EventKind::kTaskArrival) {
        ++result.arrivals;
        const std::size_t id = pending.size();
        pending.push_back(PendingTask{id, e.task, e.time_s, 0});
        if (admission.offer(waiting.waiting())) {
          waiting.admit(id, epoch);
        } else {
          append(e.time_s, e.task.id, DecisionKind::kReject, 0);
        }
      } else {
        // A join, a station coming back or a link fade interrupts nothing.
        control::Interruptions hit;
        if (e.kind == EventKind::kDeviceLeave) {
          hit = recon.device_left(e.device, e.time_s);
        } else if (e.kind == EventKind::kDeviceMigrate) {
          hit = recon.device_migrated(e.device, e.time_s);
        } else if (e.kind == EventKind::kStationDown) {
          hit = recon.station_down(e.station, e.time_s);
        }
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
    stage.emplace("serve.stage.triage", "serve");
    const std::vector<ReadmissionEntry> ready = waiting.take_ready(epoch);
    reg.gauge("serve.queue.depth")
        .set(static_cast<double>(waiting.waiting()));
    if (ready.empty()) continue;
    ++result.decide_epochs;

    waits_ms.clear();
    std::vector<const PendingTask*> batch;
    std::vector<double> residuals;
    // Built for the epoch's first dark-cell task, if any.
    std::optional<mec::Topology> live;
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
      const std::size_t issuer = p.task.id.user;
      if (!pop.up(issuer)) {
        ++result.lost_issuer;
        append(now, p.task.id, DecisionKind::kLostIssuer, p.attempts);
        continue;
      }
      if (p.task.external_bytes > 0.0 && !pop.up(p.task.external_owner)) {
        // Re-divide the data across the surviving replicas, or park the
        // task until the owner rejoins.
        const std::optional<Rescue> r =
            shared == nullptr
                ? std::nullopt
                : rescue(universe, pop, *shared, shared->task_items[wte.id],
                         p.task, residual);
        if (!r) {
          retry_or_exhaust(wte.id, now);
          continue;
        }
        const double finish = now + r->seconds;
        ++result.completed;
        ++result.rescued;
        result.total_energy_j += r->energy_j;
        result.makespan_s = std::max(result.makespan_s, finish);
        if (log != nullptr) {
          log->append({epoch, now, p.task.id, DecisionKind::kRescue,
                       Decision::kLocal,
                       sharder.shard_of_station(pop.station(issuer)),
                       p.attempts,
                       now - p.arrival_s, r->energy_j, finish});
        }
        continue;
      }
      if (!pop.station_up(pop.station(issuer))) {
        // The cell is dark: only the issuer itself can run the task, and
        // only if its external data (if any) is in the same cell. Local
        // runs placed earlier in this pass already hold the device.
        const bool routable =
            p.task.external_bytes <= 0.0 ||
            pop.station(p.task.external_owner) == pop.station(issuer);
        double used = 0.0;
        for (const RunningTask& r : recon.running()) {
          if (r.where == Decision::kLocal && r.issuer == issuer) {
            used += r.resource;
          }
        }
        const bool fits =
            used + p.task.resource <= universe.device(issuer).max_resource;
        if (routable && fits) {
          if (!live) live.emplace(live_universe(universe, pop));
          const mec::CostEntry local = mec::CostModel(*live).evaluate(
              p.task, mec::Placement::kLocal);
          if (local.latency_s() <= residual) {
            start(wte.id, Decision::kLocal,
                  sharder.shard_of_station(pop.station(issuer)),
                  local.latency_s(), local.energy_j);
            continue;
          }
        }
        retry_or_exhaust(wte.id, now);
        continue;
      }
      batch.push_back(&p);
      residuals.push_back(residual);
    }

    if (!batch.empty()) {
      // ---- 3. Shard against the residual system. Only the devices the
      // batch names can enter a shard roster, so only theirs are priced.
      stage.emplace("serve.stage.occupancy", "serve");
      std::vector<double> dev_res(nd, 0.0);
      std::vector<double> st_res(ns);
      {
        std::vector<double> dev_used(nd, 0.0);
        std::vector<double> st_used(ns, 0.0);
        recon.occupancy(now, dev_used, st_used);
        const auto price = [&](std::size_t g) {
          dev_res[g] = universe.device(g).max_resource - dev_used[g];
        };
        for (const PendingTask* p : batch) {
          price(p->task.id.user);
          if (p->task.external_bytes > 0.0) price(p->task.external_owner);
        }
        for (std::size_t b = 0; b < ns; ++b) {
          st_res[b] = universe.base_station(b).max_resource - st_used[b];
        }
      }
      stage.emplace("serve.stage.shard", "serve");
      std::vector<ShardProblem> shards =
          sharder.build(pop, dev_res, st_res, batch, residuals);

      // ---- 4. Solve every shard in parallel under one epoch deadline.
      CancellationToken epoch_token = stop;
      if (options_.epoch_budget_ms > 0.0) {
        epoch_token =
            stop.with_deadline(Deadline::after_ms(options_.epoch_budget_ms));
      }
      // The instance takes the shard's tasks by move; apply reads only
      // task_ids and the outcome.
      auto solve_shard = [&](ShardProblem& sp) -> ShardOutcome {
        const auto t0 = std::chrono::steady_clock::now();
        const assign::HtaInstance inst = [&] {
          const obs::ScopedTimer span("assign.instance", "assign");
          return assign::HtaInstance(sp.topology, std::move(sp.tasks));
        }();
        const std::size_t num_tasks = inst.num_tasks();
        ShardOutcome oc;
        oc.plan = chain.assign(inst, oc.rung, epoch_token);
        oc.latency_s.assign(num_tasks, 0.0);
        oc.energy_j.assign(num_tasks, 0.0);
        for (std::size_t t = 0; t < num_tasks; ++t) {
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
          rec.iterations = num_tasks;
          rec.deadline_residual_ms =
              obs::FlightRecorder::residual_ms(epoch_token.deadline());
          rec.deadline_hit = epoch_token.expired();
          flight.record(std::move(rec));
        }
        return oc;
      };

      stage.emplace("serve.stage.solve", "serve");
      const auto solve_t0 = std::chrono::steady_clock::now();
      std::vector<ShardOutcome> outcomes;
      outcomes.reserve(shards.size());
      if (pool) {
        std::vector<std::future<ShardOutcome>> futures;
        futures.reserve(shards.size());
        for (ShardProblem& sp : shards) {
          futures.push_back(
              pool->submit([&solve_shard, &sp] { return solve_shard(sp); }));
        }
        for (std::future<ShardOutcome>& f : futures) {
          outcomes.push_back(f.get());  // shard order, not finish order
        }
      } else {
        outcomes.push_back(solve_shard(shards.front()));
      }
      const double solve_ms = wall_ms(solve_t0);
      reg.histogram("serve.epoch.solve_ms").observe(solve_ms);
      if (options_.epoch_budget_ms > 0.0 && epoch_token.expired()) {
        reg.counter("serve.epoch.budget_expired").add();
      }

      // ---- 5. Apply in shard order: the decision log never sees the
      // worker schedule.
      stage.emplace("serve.stage.apply", "serve");
      for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardProblem& sp = shards[i];
        const ShardOutcome& oc = outcomes[i];
        ++result.shard_solves;
        ++result.rungs[oc.rung];
        shard_devices += sp.topology.num_devices();
        for (std::size_t t = 0; t < sp.task_ids.size(); ++t) {
          const Decision d = oc.plan.decisions[t];
          if (d == Decision::kCancelled) {
            retry_or_exhaust(sp.task_ids[t], now);
            continue;
          }
          start(sp.task_ids[t], d, sp.shard, oc.latency_s[t], oc.energy_j[t]);
        }
      }
    }
    if (!waits_ms.empty()) {
      reg.histogram("serve.admit_to_decision_ms").observe_all(waits_ms);
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
  reg.counter("serve.rescued").add(result.rescued);
  reg.counter("serve.expired").add(result.expired);
  reg.counter("serve.lost_issuer").add(result.lost_issuer);
  reg.counter("serve.exhausted").add(result.exhausted);
  reg.counter("serve.orphans").add(result.orphaned);
  reg.counter("serve.readmissions").add(result.retries);
  reg.counter("serve.abandoned").add(result.abandoned);
  reg.counter("serve.shard_solves").add(result.shard_solves);
  reg.counter("serve.shard.devices").add(shard_devices);
  return result;
}

}  // namespace mecsched::serve
