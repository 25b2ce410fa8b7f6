// Assignment evaluation: the metrics the paper's figures report (total
// energy, average latency, unsatisfied-task rate) plus a full constraint
// checker for (C1)–(C5) used by tests and by callers that want to verify a
// plan before executing it.
#pragma once

#include <string>
#include <vector>

#include "assign/assignment.h"
#include "assign/hta_instance.h"

namespace mecsched::assign {

struct Metrics {
  std::size_t num_tasks = 0;
  std::size_t cancelled = 0;
  std::size_t deadline_violations = 0;  // placed tasks exceeding T_ij

  double total_energy_j = 0.0;   // Σ E_ijl over placed tasks
  double mean_latency_s = 0.0;   // over placed tasks
  double max_latency_s = 0.0;

  std::size_t on_local = 0;
  std::size_t on_edge = 0;
  std::size_t on_cloud = 0;

  // Paper's "unsatisfied task rate": tasks whose delay constraint cannot be
  // met — cancelled tasks count as unsatisfied too.
  double unsatisfied_rate() const {
    return num_tasks == 0
               ? 0.0
               : static_cast<double>(cancelled + deadline_violations) /
                     static_cast<double>(num_tasks);
  }
};

Metrics evaluate(const HtaInstance& instance, const Assignment& assignment);

// One rule a plan breaks, as plan_violations finds it.
struct PlanViolation {
  enum class Kind { kDecision, kDeadline, kDevice, kStation };
  Kind kind;
  std::size_t index;  // the task (kDecision, kDeadline), device or station
  double value;       // the raw decision, the latency or the load
  double limit;       // the deadline or the capacity (0 for kDecision)
};

// The one check of a plan against (C1)-(C3), in one pass and in this
// order: per task, a decision outside the enum, then — when `deadlines` —
// a placed task that misses its deadline (C1, HtaInstance::meets_deadline);
// then — when `capacity` — each device (C2) and each station (C3) whose
// load exceeds its cap by more than 1e-9 (load - cap > 1e-9). Both
// check_feasibility and audit::check_assignment judge plans by it.
std::vector<PlanViolation> plan_violations(const HtaInstance& instance,
                                           const Assignment& assignment,
                                           bool deadlines, bool capacity);

// Constraint audit of (C1)-(C5). `ok` is true iff every placed task meets
// its deadline and no device/station exceeds its resource cap. Violations
// are described in `problems` (one line each) for debuggability.
struct FeasibilityReport {
  bool ok = true;
  std::vector<std::string> problems;
};

FeasibilityReport check_feasibility(const HtaInstance& instance,
                                    const Assignment& assignment);

}  // namespace mecsched::assign
