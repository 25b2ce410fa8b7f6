// Shared builder for the per-cluster LP relaxation P2 (plus the
// cancel-slack column documented in lp_hta.cpp). Used by LP-HTA's Step 1
// and by the sensitivity analysis, which needs the same LP but reads its
// dual values.
//
// Column layout: 4 consecutive columns per active task
// (local, edge, cloud, cancel). Row layout: one equality row per task (in
// `active` order), then one "<=" row per device (ids in `device_ids`
// order), then the station row.
//
// The builder also returns Step 1's simplex start point (`crash`). Each
// task row is a sum-to-one choice over its columns, so putting the task's
// whole unit on one column it can take in full satisfies that row; the
// device and station knapsack rows then start with their slacks basic
// wherever that point leaves room.
#pragma once

#include <vector>

#include "assign/hta_instance.h"
#include "lp/problem.h"

namespace mecsched::assign {

struct ClusterLp {
  lp::Problem problem;
  std::vector<std::size_t> active;      // schedulable task indices
  std::vector<std::size_t> unschedulable;  // pre-cancelled task indices
  std::vector<std::size_t> device_ids;  // devices with a C2 row, ascending
  std::vector<std::size_t> device_row;  // constraint index per device_ids[i]
  std::size_t station_row = 0;          // constraint index of the C3 row
  double cancel_penalty = 0.0;
  // One value per column: 1.0 on each task's cheapest placement with
  // upper bound >= 1 (lowest placement index on ties), or on its cancel
  // column when no placement qualifies; 0.0 elsewhere.
  std::vector<double> crash;

  std::size_t column(std::size_t task_slot, std::size_t l) const {
    return task_slot * 4 + l;
  }
};

ClusterLp build_cluster_lp(const HtaInstance& instance, std::size_t b);

}  // namespace mecsched::assign
