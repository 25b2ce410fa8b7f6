// The divisible-task pipeline of Sec. IV.C.
//
//   1. divide the required data D with DTA-Workload or DTA-Number,
//   2. rearrange: each device with a share C_i gets one new (local-only)
//      task per original task whose data intersects C_i — only the task
//      descriptor op_ij travels,
//   3. schedule the rearranged tasks with LP-HTA (Sec. III),
//   4. aggregate: partial results flow back through the base stations and
//      the final result reaches the issuing user.
//
// Because only descriptors and (small) partial results move — never raw
// data — the pipeline's energy is far below holistic scheduling whenever
// η(y) << y, which is exactly Fig. 5's finding.
//
// Modelling notes (the paper leaves coordination costs implicit):
//   * descriptor distribution: the issuer uploads op_ij once; every other
//     involved device downloads it; a cross-cluster hop adds e_BB once per
//     remote cluster.
//   * partial results: devices that computed locally upload η(portion);
//     results produced at an edge/cloud placement already sit in the
//     backbone (their return leg is in the Sec. II cost of that placement).
//   * the issuer downloads the final aggregated result η(total input).
//   * a rearranged task keeps its deadline and carries the original
//     resource demand scaled by its data fraction.
//   * processing time: devices and stations execute their queues
//     sequentially; the cloud is width-unbounded. Makespan =
//     max over executors (busy time) + slowest partial-result upload +
//     final download.
#pragma once

#include <vector>

#include "assign/assignment.h"
#include "assign/lp_hta.h"
#include "dta/coverage.h"
#include "dta/data_model.h"

namespace mecsched::dta {

enum class DtaStrategy {
  kWorkload,       // Sec. IV.A: balance item counts
  kWorkloadBytes,  // extension: balance data volume (heterogeneous blocks)
  kNumber,         // Sec. IV.B: minimize involved devices (set cover)
};

std::string to_string(DtaStrategy s);

// Scheduler for the rearranged tasks (step 3).
//   kLpHta       — the paper's choice (Sec. IV.C applies LP-HTA).
//   kLocalGreedy — local > edge > cloud greedy, O(n). Rearranged tasks are
//     local-data-only, so the LP relaxation is integral whenever capacity
//     is slack and the greedy coincides with LP-HTA; the big Fig. 5/6
//     sweeps (tens of thousands of partial tasks) use it to keep the dense
//     LP out of the hot path.
enum class PartialScheduler { kLpHta, kLocalGreedy };

struct DtaOptions {
  DtaStrategy strategy = DtaStrategy::kWorkload;
  PartialScheduler scheduler = PartialScheduler::kLpHta;
  assign::LpHtaOptions lp{};
};

struct DtaResult {
  Coverage coverage;
  std::vector<mec::Task> rearranged;   // the new tasks handed to LP-HTA
  assign::Assignment assignment;       // LP-HTA's schedule of them

  double compute_energy_j = 0.0;       // Sec. II energy of the schedule
  double coordination_energy_j = 0.0;  // descriptors + partial results
  double total_energy_j = 0.0;
  double processing_time_s = 0.0;      // makespan incl. aggregation
  std::size_t involved_devices = 0;

  // Deadline accounting over the rearranged tasks (each inherits its
  // source task's deadline).
  std::size_t partials_cancelled = 0;
  std::size_t partials_deadline_violations = 0;
};

DtaResult run_dta(const SharedDataScenario& scenario, DtaOptions options = {});

// Views the divisible tasks as holistic ones (α = issuer-owned bytes,
// β = the rest, L = the device owning most of the remainder) so LP-HTA can
// be benchmarked on the same workload (Fig. 5's third series).
std::vector<mec::Task> to_holistic_tasks(const SharedDataScenario& scenario);

}  // namespace mecsched::dta
