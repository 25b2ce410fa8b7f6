// ServeDaemon: the one epoch loop behind `mecsched serve`, `mecsched
// online` and `mecsched churn` (the latter two through serve/stream.h).
//
// Epoch lifecycle (docs/serve.md):
//
//   1. ingest  — close the next batching window (IngestCursor): arrivals
//      enter the waiting room (ReadmissionQueue) or are rejected at its
//      depth cap; churn and fault events update the Population and are
//      reconciled against in-flight work (issuer gone -> lost; owner gone /
//      issuer migrated off-cell / cell gone dark -> orphaned and
//      re-admitted with backoff); then one sweep of the in-flight list
//      drops finished work and adds up what the rest holds per device
//      and per station (Reconciler::settle);
//   2. triage  — pull the epoch batch in admission order; expire tasks
//      whose residual slack (net of the configured epoch budget) is gone,
//      drop tasks whose issuer left, rescue tasks whose external owner is
//      away by re-dividing their data across the surviving replicas (DTA,
//      when a SharedDataView is given) or park them, and run tasks whose
//      cell is dark locally when that fits and meets the deadline, or park
//      them; each survivor becomes one BatchTask record;
//   3. build   — build one epoch topology of the devices the survivors
//      name and every cell, priced against the residual capacities and
//      current radios, and list the survivors on it (EpochBuilder);
//   4. solve   — the survivors are one HtaInstance over the epoch
//      topology, run through the FallbackChain under the epoch deadline
//      (anytime degradation); LP-HTA solves its clusters on one
//      long-lived pool (more than one worker) or inline, each cluster LP
//      from its tasks' cheapest whole placements (assign/cluster_lp.h);
//   5. apply   — outcomes are committed *in batch order*: placements
//      start running (capacity reserved until the analytic finish time),
//      cancellations go back to the waiting room.
//
// Determinism contract: the virtual clock, batching, triage order, the
// cluster fold and the apply order are all independent of the worker
// count, so the same (universe, trace, options) yields a byte-identical
// DecisionLog at --jobs 1 and --jobs N. The flight record follows the
// same fold: ThreadPool::map appends each cluster's records in station
// order, as the inline path cuts them, so it too is the same sequence at
// any worker count, all but its clock fields (`seconds`,
// `deadline_residual_ms`). The epoch budget is the exception — a
// wall-clock deadline makes rung selection machine-dependent — so the CI
// determinism gate runs unbudgeted (same trade the sweep path makes).
//
// The run ends once the trace's last arrival has been ingested and every
// admitted task has settled; churn later in the trace is not replayed.
//
// A cooperative stop token (Ctrl-C via ScopedSignalStop, or tests) ends
// the run at the next epoch boundary; open tasks are logged as abandoned
// so the decision log always accounts for every admitted task.
//
// Modelling notes: execution is analytic (Sec. II costs) — faults
// interrupt tasks at the granularity of whole runs, not stages (the event
// simulator covers stage granularity). Energy spent on an attempt that is
// later orphaned stays spent. A rescued task's partial executors are not
// charged against the capacity ledger (the rescue runs in the generously
// capacitated shared-data regime).
#pragma once

#include <cstddef>

#include <vector>

#include "assign/lp_hta.h"
#include "common/deadline.h"
#include "control/fallback.h"
#include "control/readmission.h"
#include "dta/data_model.h"
#include "mec/topology.h"
#include "serve/decision_log.h"
#include "serve/epoch_builder.h"
#include "serve/event.h"
#include "serve/ingest.h"

namespace mecsched::serve {

// Read by no code: an epoch is one solve. It stays only because
// perfbench/src/serve_city.cpp sets opts.sharding.num_shards, and that
// file changes only with the benchmark; it goes when that line does.
struct ShardingOptions {
  std::size_t num_shards = 1;
};

struct ServeOptions {
  BatchingOptions batching{};     // epoch window + size cap
  ShardingOptions sharding{};     // unread; see ShardingOptions
  // The waiting room: depth cap on new arrivals + retry budget.
  control::ReadmissionOptions readmission{};
  // Per-epoch decision budget (0 = unlimited): one absolute deadline for
  // the epoch's solve, and charged against each task's residual slack at
  // triage — deterministically, as the *configured* value, not measured
  // wall time.
  double epoch_budget_ms = 0.0;
  // Cluster-solve workers; 0 = ThreadPool::default_jobs(1): --jobs or
  // MECSCHED_JOBS, else one (inline).
  std::size_t jobs = 0;
  assign::LpHtaOptions lp{};       // rung-0 configuration
};

// The data-shared view of a trace's tasks: per-item sizes, per-device
// ownership (with replicas), and each arrival's item set in trace order
// (empty = the task is holistic-only and cannot be rescued by
// re-division).
struct SharedDataView {
  std::vector<double> item_bytes;
  std::vector<dta::ItemSet> ownership;   // one per device
  std::vector<dta::ItemSet> task_items;  // one per trace arrival
};

struct ServeResult {
  std::size_t events = 0;        // trace events ingested
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;      // refused at admission
  std::size_t decisions = 0;     // tasks placed
  std::size_t completed = 0;     // ran to completion, rescued included
  std::size_t rescued = 0;       // completed by DTA re-division
  std::size_t expired = 0;       // slack gone at triage
  std::size_t lost_issuer = 0;   // issuer left (waiting or mid-run)
  std::size_t exhausted = 0;     // retry budget consumed
  std::size_t orphaned = 0;      // in-flight work interrupted by churn
  std::size_t retries = 0;       // successful re-admissions
  std::size_t abandoned = 0;     // open at an early stop
  std::size_t epochs = 0;        // loop heartbeats (drain included)
  std::size_t decide_epochs = 0; // epochs that pulled a non-empty batch
                                 // (before triage)
  control::RungHistogram rungs;  // which rung served each epoch solve
  double total_energy_j = 0.0;
  double makespan_s = 0.0;       // last analytic finish
  double virtual_now_s = 0.0;    // clock when the loop ended
  bool stopped_early = false;    // stop token fired
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options = {});

  // Runs the trace to completion (or to `stop`). `log` may be nullptr;
  // so may `shared` (no DTA rescue). The trace and the shared view are
  // validated against the universe topology.
  ServeResult run(const mec::Topology& universe, const Trace& trace,
                  DecisionLog* log = nullptr,
                  const CancellationToken& stop = {},
                  const SharedDataView* shared = nullptr) const;

 private:
  ServeOptions options_;
};

}  // namespace mecsched::serve
