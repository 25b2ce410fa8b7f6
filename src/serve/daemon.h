// ServeDaemon: the online, sharded scheduling loop behind `mecsched serve`.
//
// Epoch lifecycle (docs/serve.md):
//
//   1. ingest  — close the next batching window (IngestCursor): arrivals
//      pass admission control into the waiting room (ReadmissionQueue,
//      shared with the resilient controller), churn events update the
//      Population and are reconciled against in-flight work (issuer gone
//      -> lost; owner gone / issuer migrated off-cell -> orphaned and
//      re-admitted with backoff);
//   2. triage  — pull the epoch batch in admission order; expire tasks
//      whose residual slack (net of the configured epoch budget) is gone,
//      drop tasks whose issuer left, park tasks whose external owner is
//      currently away;
//   3. shard   — cut the survivors into per-neighborhood HtaInstances
//      against the residual capacities (Sharder);
//   4. solve   — shards run in parallel on one long-lived thread pool,
//      each through the FallbackChain under the shared epoch deadline
//      (anytime degradation per shard); each cluster LP starts from its
//      tasks' cheapest whole placements (assign/cluster_lp.h);
//   5. apply   — outcomes are gathered and committed *in shard order*:
//      placements start running (capacity reserved until the analytic
//      finish time), cancellations go back to the waiting room.
//
// Determinism contract: the virtual clock, batching, triage order,
// sharding and the apply order are all independent of the worker count,
// so the same (universe, trace, options) yields a byte-identical
// DecisionLog at --jobs 1 and --jobs N. The epoch budget is the exception
// — a wall-clock deadline makes rung selection machine-dependent — so the
// CI determinism gate runs unbudgeted (same trade the sweep path makes).
//
// A cooperative stop token (Ctrl-C via ScopedSignalStop, or tests) ends
// the run at the next epoch boundary; open tasks are logged as abandoned
// so the decision log always accounts for every admitted task.
#pragma once

#include <cstddef>

#include "assign/lp_hta.h"
#include "common/deadline.h"
#include "control/fallback.h"
#include "control/readmission.h"
#include "mec/topology.h"
#include "serve/decision_log.h"
#include "serve/event.h"
#include "serve/ingest.h"
#include "serve/sharder.h"

namespace mecsched::serve {

struct ServeOptions {
  BatchingOptions batching{};     // epoch window + size cap
  AdmissionOptions admission{};   // waiting-room depth cap
  ShardingOptions sharding{};
  control::ReadmissionOptions readmission{};  // retry budget + backoff
  // Per-epoch decision budget (0 = unlimited). Shared by all shards of
  // the epoch as one absolute deadline, and charged against each task's
  // residual slack at triage — deterministically, as the *configured*
  // value, not measured wall time.
  double epoch_budget_ms = 0.0;
  std::size_t jobs = 0;            // shard-solve workers; 0 = default_jobs
  assign::LpHtaOptions lp{};       // rung-0 configuration
};

struct ServeResult {
  std::size_t events = 0;        // trace events ingested
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;      // refused at admission
  std::size_t decisions = 0;     // tasks placed
  std::size_t completed = 0;
  std::size_t expired = 0;       // slack gone at triage
  std::size_t lost_issuer = 0;   // issuer left (waiting or mid-run)
  std::size_t exhausted = 0;     // retry budget consumed
  std::size_t orphaned = 0;      // in-flight work interrupted by churn
  std::size_t retries = 0;       // successful re-admissions
  std::size_t abandoned = 0;     // open at an early stop
  std::size_t epochs = 0;        // loop heartbeats (drain included)
  std::size_t decide_epochs = 0; // epochs that solved at least one shard
  std::size_t shard_solves = 0;  // shard problems solved
  control::RungHistogram rungs;  // which rung served each shard solve
  double total_energy_j = 0.0;
  double makespan_s = 0.0;       // last analytic finish
  double virtual_now_s = 0.0;    // clock when the loop ended
  bool stopped_early = false;    // stop token fired
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeOptions options = {});

  // Runs the trace to completion (or to `stop`). `log` may be nullptr.
  // The trace is validated against the universe topology.
  ServeResult run(const mec::Topology& universe, const Trace& trace,
                  DecisionLog* log = nullptr,
                  const CancellationToken& stop = {}) const;

 private:
  ServeOptions options_;
};

}  // namespace mecsched::serve
