#include "audit/assignment_audit.h"

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "assign/evaluator.h"
#include "audit/audit.h"
#include "mec/cost_model.h"

namespace mecsched::audit {

namespace {

constexpr std::string_view kComponent = "assign";

std::string task_label(const assign::HtaInstance& instance, std::size_t t) {
  std::ostringstream os;
  os << "task " << t << " (" << mec::to_string(instance.task(t).id) << ")";
  return os.str();
}

}  // namespace

void check_assignment(const assign::HtaInstance& instance,
                      const assign::Assignment& assignment,
                      const AssignmentContract& contract,
                      std::string_view algorithm) {
  if (!enabled(Level::kCheap)) return;
  count_check(kComponent);
  const std::string tag = " [" + std::string(algorithm) + "]";

  if (assignment.size() != instance.num_tasks()) {
    fail(kComponent, "shape:size",
         static_cast<double>(assignment.size()),
         "plan has " + std::to_string(assignment.size()) +
             " decisions for " + std::to_string(instance.num_tasks()) +
             " tasks" + tag);
  }

  for (const assign::PlanViolation& v : assign::plan_violations(
           instance, assignment, contract.deadlines, contract.capacity)) {
    const std::size_t i = v.index;
    switch (v.kind) {
      case assign::PlanViolation::Kind::kDecision:
        fail(kComponent, "shape:decision:task=" + std::to_string(i), v.value,
             task_label(instance, i) + " carries out-of-range decision " +
                 std::to_string(static_cast<int>(v.value)) + tag);
      case assign::PlanViolation::Kind::kDeadline: {
        const double overshoot = v.value - v.limit;
        const mec::Placement p =
            assign::to_placement(assignment.decisions[i]);
        fail(kComponent, "C1:deadline:task=" + std::to_string(i), overshoot,
             task_label(instance, i) + " on " + mec::to_string(p) +
                 " misses its deadline by " + std::to_string(overshoot) +
                 "s" + tag);
      }
      case assign::PlanViolation::Kind::kDevice:
      case assign::PlanViolation::Kind::kStation: {
        const double over = v.value - v.limit;
        const bool device = v.kind == assign::PlanViolation::Kind::kDevice;
        fail(kComponent,
             (device ? "C2:device=" : "C3:station=") + std::to_string(i),
             over,
             (device ? "device " : "station ") + std::to_string(i) +
                 " over capacity by " + std::to_string(over) + tag);
      }
    }
  }

  if (!enabled(Level::kFull)) return;

  // Cost integrity: the instance's cached TaskCosts were produced by
  // mec::CostModel at construction; re-deriving them must reproduce the
  // exact same doubles (same pure function, same inputs). A mismatch means
  // the cache was corrupted after construction.
  const mec::CostModel model(instance.topology());
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    if (assignment.decisions[t] == assign::Decision::kCancelled) continue;
    const mec::TaskCosts fresh = model.evaluate(instance.task(t));
    for (const mec::Placement p : mec::kAllPlacements) {
      const double dl = fresh.latency(p) - instance.latency(t, p);
      const double de = fresh.energy(p) - instance.energy(t, p);
      if (dl != 0.0 || de != 0.0) {
        fail(kComponent, "cost:task=" + std::to_string(t),
             std::fabs(dl) + std::fabs(de),
             task_label(instance, t) + " cached costs for " +
                 mec::to_string(p) +
                 " diverge from the model (Δlatency=" + std::to_string(dl) +
                 "s, Δenergy=" + std::to_string(de) + "J)" + tag);
      }
    }
  }
}

}  // namespace mecsched::audit
