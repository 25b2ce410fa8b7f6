// Assignment auditor (audit/audit.h for the level machinery; compiled
// into mecsched_assign so every assigner can self-check its output).
//
// Each algorithm declares what its output *promises* via an
// AssignmentContract, and check_assignment re-derives the promise from the
// model instead of trusting the algorithm's own bookkeeping. The cheap
// checks are assign::plan_violations, the pass check_feasibility reports
// from; the first violation it finds is the one thrown:
//
//   cheap  shape           one decision per instance task, valid enum
//          (C1) deadlines  every placed task meets t_ijl <= T_ij — only
//                          for algorithms that promise it (LP-HTA repairs
//                          or cancels; HGOS by design does not consult
//                          deadlines, so its contract waives C1)
//          (C2/C3) capacity Σ resource per device / station within caps
//   full   cost integrity  the instance's cached TaskCosts are re-derived
//                          from mec::CostModel and must match bit-for-bit
//                          (catches stale or corrupted cost caches)
//
// Contracts per algorithm (the hooks in assign/*.cpp):
//   LP-HTA, LocalFirst, Exact  deadlines + capacity
//   HGOS, AllOffload, Random   capacity only (deadline misses are the
//                              measured "unsatisfied rate", not a bug)
//   AllToCloud                 capacity only (vacuously — cloud unbounded)
//   Portfolio                  shape only: the winner was already audited
//                              by the candidate that produced it, and a
//                              portfolio may legitimately return the least
//                              bad of several infeasible plans
//   recovery                   capacity + no surviving reference to the
//                              failed device (checked in recovery.cpp)
#pragma once

#include <string_view>

#include "assign/assignment.h"
#include "assign/hta_instance.h"

namespace mecsched::audit {

struct AssignmentContract {
  bool deadlines = false;  // (C1) every placed task meets its deadline
  bool capacity = true;    // (C2)/(C3) device & station caps respected
};

// Audits `assignment` against `instance` at the current audit level.
// `algorithm` tags error messages. Throws AuditError on violation.
void check_assignment(const assign::HtaInstance& instance,
                      const assign::Assignment& assignment,
                      const AssignmentContract& contract,
                      std::string_view algorithm);

}  // namespace mecsched::audit
