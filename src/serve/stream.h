// Task streams through the serve daemon: what `mecsched online` and
// `mecsched churn` run (docs/serve.md, "Streams and fault schedules").
//
// A stream is a list of timed tasks (mec::TimedTask) plus a fault
// schedule (sim::FaultSchedule, empty for plain online scheduling). It
// becomes one Trace: each task an arrival at its release time, each fault
// the churn event that says the same thing —
//
//   device fail / recover      -> leave / join at the device's home cell,
//   station fail / recover     -> station-down / station-up,
//   link degrade / restore     -> link-fade at the factor / at 1.
//
// Simultaneous events keep their order: the tasks in input order, then
// the faults in schedule order. The caller's ServeOptions pick the epoch
// (batching.window_s), the retry budget (readmission) and the rung-0
// solver; each epoch is one solve, the paper's LP-HTA over the whole
// topology.
//
// Per-task outcomes are read back from the decision log, which names
// tasks by TaskId, so a stream's task ids must be unique.
#pragma once

#include <cstddef>
#include <vector>

#include "assign/assignment.h"
#include "mec/task.h"
#include "mec/topology.h"
#include "serve/daemon.h"
#include "serve/decision_log.h"
#include "sim/fault_schedule.h"

namespace mecsched::serve {

// One stream task's end state: its last decision-log record.
struct StreamOutcome {
  // kDecide (ran to completion), kRescue, kExpire, kLostIssuer,
  // kExhausted, or kReject under an admission cap.
  DecisionKind fate = DecisionKind::kExhausted;
  assign::Decision decision = assign::Decision::kCancelled;  // if completed
  double start_s = 0.0;   // epoch boundary of the completed attempt
  double finish_s = 0.0;  // its analytic completion
  std::size_t attempts = 0;

  bool completed() const {
    return fate == DecisionKind::kDecide || fate == DecisionKind::kRescue;
  }
};

struct StreamResult {
  ServeResult serve;                    // the daemon's tallies
  std::vector<StreamOutcome> outcomes;  // aligned with the input tasks
  // finish - release over the completed tasks, summed in release order.
  double mean_response_s = 0.0;

  std::size_t unsatisfied() const { return outcomes.size() - serve.completed; }
  double unsatisfied_rate() const {
    return outcomes.empty() ? 0.0
                            : static_cast<double>(unsatisfied()) /
                                  static_cast<double>(outcomes.size());
  }
};

// Runs the stream through ServeDaemon(options). `shared` may be nullptr
// (no DTA rescue); its task_items are aligned with `tasks`. Throws
// ModelError for duplicate task ids and for a fault that names a device
// or station outside `universe`.
StreamResult run_stream(const ServeOptions& options,
                        const mec::Topology& universe,
                        const std::vector<mec::TimedTask>& tasks,
                        const sim::FaultSchedule& faults = {},
                        const SharedDataView* shared = nullptr);

}  // namespace mecsched::serve
