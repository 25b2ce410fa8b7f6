// Rolling-horizon controller — the paper's one-shot LP-HTA (Sec. III.A)
// turned into an epoch loop over a task stream, with degradation
// tolerance. `mecsched online` runs it with no faults and one attempt per
// task (plain online scheduling), `mecsched churn` under a FaultSchedule.
// It shares its waiting room and in-flight ledger with the serve daemon
// (serve/daemon.h), which runs its own sharded loop over churn traces.
//
// Arrivals are batched into fixed epochs (simultaneous releases are
// admitted in input order). At every epoch boundary the controller
//
//   * collects completions and replays the faults of the last epoch
//     against the in-flight ledger (control/reconciler.h): a failed
//     device is a leave — tasks it issued are truly lost (there is no
//     radio left to upload data or receive a result), tasks whose
//     external data it owned are orphaned — and a failed station orphans
//     the edge/cloud work issued through its cell;
//   * re-admits orphaned tasks with *residual* deadlines (the wait so far
//     is gone for good) and bounded retry: at most
//     `readmission.max_attempts` admissions per task, re-admission delayed
//     by an exponentially growing epoch backoff (control/readmission.h);
//   * rescues orphaned *divisible* tasks whose external owner is down by
//     re-dividing the task's data across the surviving owners through the
//     DTA pipeline (graceful degradation instead of cancellation) — this
//     needs the optional SharedDataView;
//   * prices the system as it is *now*: residual capacities net of
//     running work, dead devices and stations carry zero capacity,
//     degraded links are re-priced at their current rates, and tasks in a
//     cluster whose cell is down can only run locally until the cell
//     recovers;
//   * never aborts on a solver failure: every batch goes through the
//     FallbackChain (LP-HTA budgeted -> HGOS -> LocalFirst), and the
//     histogram of which rung served is reported.
//
// Modelling notes: execution is analytic (Sec. II costs) — faults
// interrupt tasks at the granularity of whole runs, not stages (the event
// simulator covers stage granularity). Energy spent on an attempt that is
// later orphaned stays spent. Rescued tasks' partial executors are not
// charged against the epoch capacity ledger (the rescue path uses the
// generously-capacitated shared-data regime).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "assign/lp_hta.h"
#include "control/fallback.h"
#include "control/readmission.h"
#include "dta/data_model.h"
#include "mec/task.h"
#include "mec/topology.h"
#include "sim/fault_schedule.h"

namespace mecsched::control {

struct ResilientOptions {
  double epoch_s = 0.5;
  // Bounded retry with exponential epoch backoff. Each admission (first,
  // or re-admission after being orphaned, owner down, cell down, or
  // cancelled by the scheduler) consumes one attempt; max_attempts = 1
  // means no retry.
  ReadmissionOptions readmission{};
  // Rung-0 configuration; lp.max_lp_iterations is the iteration budget
  // that keeps a degenerate LP from stalling an epoch.
  assign::LpHtaOptions lp{};
  // Per-epoch wall-clock budget for the scheduling decision itself
  // (0 = unlimited). When set, two things happen: (a) every batch goes to
  // the FallbackChain with a deadline of this many milliseconds, so a
  // stalling LP degrades to the greedy floor instead of blocking the
  // epoch; and (b) the decision time is charged against each task's
  // residual deadline — a task whose residual slack is smaller than the
  // decision budget is expired at triage (the decision alone would consume
  // what is left). Deterministic: the *configured* budget is subtracted,
  // not the measured wall time, so results do not depend on machine speed.
  double decision_budget_ms = 0.0;
};

// Optional data-shared view of the workload: per-item sizes, per-device
// ownership (with replicas), and each task's item set (empty = the task is
// holistic-only and cannot be rescued by re-division).
struct SharedDataView {
  std::vector<double> item_bytes;
  std::vector<dta::ItemSet> ownership;   // one per device
  std::vector<dta::ItemSet> task_items;  // one per task
};

enum class TaskFate {
  kPending = 0,         // never admitted (internal; absent from results)
  kCompleted,
  kRescuedByDta,        // completed via re-division across survivors
  kLostIssuer,          // issuer device dead at admission or mid-run
  kDeadlineExpired,     // residual slack gone before a successful attempt
  kRetriesExhausted,    // max_attempts consumed without completing
};

std::string to_string(TaskFate f);

struct ResilientTaskOutcome {
  TaskFate fate = TaskFate::kPending;
  assign::Decision decision = assign::Decision::kCancelled;
  double start_s = 0.0;   // epoch boundary of the successful admission
  double finish_s = 0.0;  // completion (0 when unsatisfied)
  std::size_t attempts = 0;
};

struct ResilientResult {
  std::vector<ResilientTaskOutcome> outcomes;  // aligned with input order

  std::size_t completed = 0;      // includes rescued_by_dta
  std::size_t unsatisfied = 0;    // tasks - completed
  std::size_t retries = 0;        // re-admissions beyond first attempts
  std::size_t orphaned = 0;       // running tasks interrupted by a fault
  std::size_t rescued_by_dta = 0;
  RungHistogram rungs;            // which fallback rung served each epoch

  double total_energy_j = 0.0;    // all attempts, wasted work included
  double mean_response_s = 0.0;   // finish - release over completed tasks
  double makespan_s = 0.0;
  std::size_t epochs = 0;

  double unsatisfied_rate() const {
    return outcomes.empty() ? 0.0
                            : static_cast<double>(unsatisfied) /
                                  static_cast<double>(outcomes.size());
  }
};

class ResilientController {
 public:
  explicit ResilientController(ResilientOptions options = {})
      : options_(options) {}

  // `shared` may be nullptr (no DTA rescue). The fault schedule's targets
  // are validated against the topology. Outcomes are aligned with `tasks`.
  ResilientResult run(const mec::Topology& topology,
                      const std::vector<mec::TimedTask>& tasks,
                      const sim::FaultSchedule& faults,
                      const SharedDataView* shared = nullptr) const;

 private:
  ResilientOptions options_;
};

}  // namespace mecsched::control
