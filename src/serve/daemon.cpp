#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
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
#include "obs/registry.h"
#include "obs/tracer.h"
#include "serve/population.h"

namespace mecsched::serve {
namespace {

using assign::Decision;
using control::ReadmissionEntry;
using control::RunningTask;

// One arrival of a run. The task and its arrival time are read from the
// trace event, which the trace keeps for the whole ServeDaemon::run.
struct PendingTask {
  const Event* arrival = nullptr;  // the kTaskArrival event
  std::size_t attempts = 0;        // admissions consumed so far

  // Global ids; deadline_s as issued.
  const mec::Task& task() const { return arrival->task; }
  // Admission time on the virtual clock.
  double arrival_s() const { return arrival->time_s; }
};

// A dark-cell task's local run, priced on a topology of just the issuer
// and the device it fetches external data from (if any), as they are now
// and in the cell they share: the operands the cost model reads for a
// local run, and nothing else.
mec::CostEntry dark_cell_local_cost(const mec::Topology& universe,
                                    const Population& pop, mec::Task task) {
  const bool fetch =
      task.external_bytes > 0.0 && task.external_owner != task.id.user;
  std::vector<mec::Device> devices{pop.device(task.id.user)};
  if (fetch) devices.push_back(pop.device(task.external_owner));
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices[i].id = i;
    devices[i].base_station = 0;
  }
  mec::BaseStation cell = universe.base_station(pop.station(task.id.user));
  cell.id = 0;
  task.id.user = 0;
  task.external_owner = fetch ? 1 : 0;
  const mec::Topology topo(std::move(devices), {cell}, universe.params());
  return mec::CostModel(topo).evaluate(task, mec::Placement::kLocal);
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
  EpochBuilder builder(universe);
  // LP-HTA solves an epoch's clusters on this pool, or on this thread
  // when one worker is asked for, or none is (by --jobs or MECSCHED_JOBS).
  const std::size_t jobs =
      options_.jobs == 0 ? exec::ThreadPool::default_jobs(1) : options_.jobs;
  std::optional<exec::ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  const control::FallbackChain chain(options_.lp, pool ? &*pool : nullptr);
  // One slot per arrival, rejected ones included, so an id is the
  // arrival's ordinal in the trace; each slot points at its arrival event
  // in the trace. Reserved up front: growing by doubling would copy the
  // vector and briefly hold old and new buffers.
  std::vector<PendingTask> pending;
  pending.reserve(trace.arrivals());
  // Every arrival settles at least once, so the log gets at least one
  // record per arrival; retries add the rest. An arrival runs at most once
  // at a time, so the in-flight list never outgrows the arrivals.
  if (log != nullptr) log->reserve(log->size() + trace.arrivals());
  recon.reserve(trace.arrivals());

  obs::Registry& reg = obs::Registry::global();
  const obs::ScopedTimer run_span("serve.run", "serve");

  const double budget_s = options_.epoch_budget_ms * 1e-3;
  const std::size_t nd = universe.num_devices();
  const std::size_t ns = universe.num_base_stations();
  double now = 0.0;
  std::size_t epoch = 0;
  std::size_t epoch_devices = 0;  // devices in the epoch topologies
  // Per-epoch buffers, kept across epochs: the epoch batch, the capacity
  // running work holds per device and per station, and the epoch's
  // admit-to-decision waits.
  std::vector<BatchTask> batch;
  std::vector<double> dev_used(nd);
  std::vector<double> st_used(ns);
  std::vector<double> waits_ms;

  auto append = [&](double t, const mec::TaskId& id, DecisionKind kind,
                    std::size_t attempt) {
    if (log != nullptr) {
      log->append(
          {epoch, t, id, kind, Decision::kCancelled, attempt, 0.0, 0.0, 0.0});
    }
  };

  // Re-admit arrival `id` with backoff, or settle it as exhausted.
  auto retry_or_exhaust = [&](std::size_t id, std::size_t attempts,
                              const mec::TaskId& task, double t) {
    if (waiting.retry(id, attempts, epoch)) {
      append(t, task, DecisionKind::kRetry, attempts);
    } else {
      ++result.exhausted;
      append(t, task, DecisionKind::kExhausted, attempts);
    }
  };

  // Start a placement made now: it runs until its analytic finish.
  auto start = [&](const BatchTask& b, Decision d, double latency_s,
                   double energy_j) {
    const double finish = now + latency_s;
    const double wait_s = now - b.arrival_s;
    result.total_energy_j += energy_j;
    result.makespan_s = std::max(result.makespan_s, finish);
    ++result.decisions;
    recon.start({.id = b.id,
                 .finish_s = finish,
                 .issuer = b.task_id.user,
                 .station = b.station,
                 .resource = b.resource,
                 .owner = b.owner,
                 .where = d,
                 .has_external = b.has_external});
    if (log != nullptr) {
      log->append({epoch, now, b.task_id, DecisionKind::kDecide, d,
                   b.attempts, wait_s, energy_j, finish});
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
        append(now, pending[w.id].task().id, DecisionKind::kAbandoned,
               pending[w.id].attempts);
      }
      for (const RunningTask& r : recon.running()) {
        ++result.abandoned;
        append(now, pending[r.id].task().id, DecisionKind::kAbandoned,
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
        pending.push_back(PendingTask{&e, 0});
        if (!waiting.admit(id, epoch)) {
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
          append(e.time_s, pending[id].task().id, DecisionKind::kLostIssuer,
                 pending[id].attempts);
        }
        for (const std::size_t id : hit.orphaned) {
          ++result.orphaned;
          retry_or_exhaust(id, pending[id].attempts, pending[id].task().id,
                           e.time_s);
        }
        pop.apply(e);
      }
    }

    // ---- Completions free their reservations; what still runs is
    // charged to the capacity it holds (triage's dark-cell runs add theirs
    // as they start).
    std::fill(dev_used.begin(), dev_used.end(), 0.0);
    std::fill(st_used.begin(), st_used.end(), 0.0);
    result.completed += recon.settle(now, dev_used, st_used);

    ++result.epochs;

    // ---- 2. Triage the epoch batch.
    stage.emplace("serve.stage.triage", "serve");
    const std::vector<ReadmissionEntry>& ready = waiting.take_ready(epoch);
    reg.gauge("serve.queue.depth")
        .set(static_cast<double>(waiting.waiting()));
    if (ready.empty()) continue;
    ++result.decide_epochs;

    waits_ms.clear();
    batch.clear();
    for (const ReadmissionEntry& wte : ready) {
      PendingTask& p = pending[wte.id];
      ++p.attempts;
      const mec::Task& task = p.task();
      // Residual slack, net of the time this epoch's decision is allowed
      // to burn (the configured budget, for determinism).
      const double residual =
          task.deadline_s - (now - p.arrival_s()) - budget_s;
      if (residual <= 0.0) {
        ++result.expired;
        append(now, task.id, DecisionKind::kExpire, p.attempts);
        continue;
      }
      const std::size_t issuer = task.id.user;
      if (!pop.up(issuer)) {
        ++result.lost_issuer;
        append(now, task.id, DecisionKind::kLostIssuer, p.attempts);
        continue;
      }
      if (task.external_bytes > 0.0 && !pop.up(task.external_owner)) {
        // Re-divide the data across the surviving replicas, or park the
        // task until the owner rejoins.
        const std::optional<Rescue> r =
            shared == nullptr
                ? std::nullopt
                : rescue(universe, pop, *shared, shared->task_items[wte.id],
                         task, residual);
        if (!r) {
          retry_or_exhaust(wte.id, p.attempts, task.id, now);
          continue;
        }
        const double finish = now + r->seconds;
        ++result.completed;
        ++result.rescued;
        result.total_energy_j += r->energy_j;
        result.makespan_s = std::max(result.makespan_s, finish);
        if (log != nullptr) {
          log->append({epoch, now, task.id, DecisionKind::kRescue,
                       Decision::kLocal, p.attempts, now - p.arrival_s(),
                       r->energy_j, finish});
        }
        continue;
      }
      const BatchTask b = make_batch_task(wte.id, task, p.attempts,
                                          p.arrival_s(), residual, pop);
      if (!pop.station_up(b.station)) {
        // The cell is dark: only the issuer itself can run the task, and
        // only if its external data (if any) is in the same cell. The
        // ledger holds the device's running local work, the runs placed
        // earlier in this pass included.
        const bool routable = !b.has_external || b.owner_station == b.station;
        const bool fits = dev_used[issuer] + task.resource <=
                          universe.device(issuer).max_resource;
        if (routable && fits) {
          const mec::CostEntry local =
              dark_cell_local_cost(universe, pop, task);
          if (local.latency_s() <= residual) {
            start(b, Decision::kLocal, local.latency_s(), local.energy_j);
            control::charge(recon.running().back(), now, dev_used, st_used);
            continue;
          }
        }
        retry_or_exhaust(wte.id, p.attempts, task.id, now);
        continue;
      }
      batch.push_back(b);
    }

    if (!batch.empty()) {
      // ---- 3. Build the epoch problem against the residual system: the
      // builder prices the epoch's devices and cells from what running
      // work holds.
      stage.emplace("serve.stage.build", "serve");
      EpochProblem problem = builder.build(pop, dev_used, st_used, batch);
      epoch_devices += problem.topology.num_devices();

      // ---- 4. Solve the epoch under its deadline: one instance, which
      // reads the epoch problem's tasks, through the fallback chain;
      // LP-HTA solves its clusters on the pool.
      stage.emplace("serve.stage.solve", "serve");
      CancellationToken epoch_token = stop;
      if (options_.epoch_budget_ms > 0.0) {
        epoch_token =
            stop.with_deadline(Deadline::after_ms(options_.epoch_budget_ms));
      }
      const auto solve_t0 = std::chrono::steady_clock::now();
      const assign::HtaInstance inst = [&] {
        const obs::ScopedTimer span("assign.instance", "assign");
        return assign::HtaInstance(problem.topology, problem.tasks);
      }();
      control::FallbackRung rung = control::FallbackRung::kLpHta;
      const assign::Assignment plan = chain.assign(inst, rung, epoch_token);
      const double solve_ms = std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - solve_t0)
                                  .count();
      reg.histogram("serve.epoch.solve_ms").observe(solve_ms);
      if (options_.epoch_budget_ms > 0.0 && epoch_token.expired()) {
        reg.counter("serve.epoch.budget_expired").add();
      }

      // ---- 5. Apply in batch order: the decision log never sees the
      // worker schedule.
      stage.emplace("serve.stage.apply", "serve");
      ++result.rungs[rung];
      for (std::size_t t = 0; t < batch.size(); ++t) {
        const BatchTask& b = batch[t];
        const Decision d = plan.decisions[t];
        if (d == Decision::kCancelled) {
          retry_or_exhaust(b.id, b.attempts, b.task_id, now);
          continue;
        }
        const mec::Placement pl = assign::to_placement(d);
        start(b, d, inst.latency(t, pl), inst.energy(t, pl));
      }
      // Apply ends here: the epoch problem's teardown and the wait
      // histogram below are no stage's work.
      stage.reset();
    }
    if (!waits_ms.empty()) {
      reg.histogram("serve.admit_to_decision_ms").observe_all(waits_ms);
    }
  }

  result.admitted = waiting.admitted();
  result.rejected = waiting.rejected();
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
  // Both counters keep the names the repository benchmark reads.
  reg.counter("serve.shard_solves").add(result.rungs.total());
  reg.counter("serve.shard.devices").add(epoch_devices);
  return result;
}

}  // namespace mecsched::serve
