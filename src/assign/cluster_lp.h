// Shared builder for the per-cluster LP relaxation P2 (plus the
// cancel-slack column documented in lp_hta.cpp). Used by LP-HTA's Step 1
// and by the sensitivity analysis, which needs the same LP but reads its
// dual values.
//
// Column layout: 4 consecutive columns per active task
// (local, edge, cloud, cancel). Row layout: one equality row per task (in
// `active` order), then one "<=" row per device (ids in `device_ids`
// order), then the station row — ClusterLp::column, device_row and
// station_row compute the indices.
//
// The builder also returns Step 1's simplex start point (`crash`). Each
// task row is a sum-to-one choice over its columns, so putting the task's
// whole unit on one column it can take in full satisfies that row. The
// device and station knapsack rows then start with their slacks basic
// wherever that point leaves room, and every task row starts with a
// structural column basic instead of its artificial (lp/simplex.h): the
// crash column when its knapsack row is slack-basic, else a zero column
// of the task (the cloud and cancel columns touch no other row, so one
// always qualifies). Phase 1 then pivots only for knapsack rows the crash
// point overloads, and a cluster whose capacities absorb it solves without
// a pivot.
#pragma once

#include <cstddef>
#include <vector>

#include "assign/hta_instance.h"
#include "lp/problem.h"

namespace mecsched::assign {

struct ClusterLp {
  lp::Problem problem;
  std::vector<std::size_t> active;  // schedulable task indices, ascending
  // Tasks no placement serves within the deadline: pre-cancelled, no row.
  std::size_t unschedulable = 0;
  std::vector<std::size_t> device_ids;  // devices with a C2 row, ascending
  // Task slots (indices into `active`) issued by device_ids[i], in
  // `active` order: device_slots[device_begin[i] .. device_begin[i + 1]).
  std::vector<std::size_t> device_begin;
  std::vector<std::size_t> device_slots;
  double cancel_penalty = 0.0;
  // Step 1's start point, passed to SimplexSolver::solve(problem, crash).
  // One value per column: 1.0 on each task's cheapest placement with
  // upper bound >= 1 (lowest placement index on ties), or on its cancel
  // column when no placement qualifies; 0.0 elsewhere.
  std::vector<double> crash;

  std::size_t column(std::size_t task_slot, std::size_t l) const {
    return task_slot * 4 + l;
  }
  // Constraint index of device_ids[i]'s C2 row, and of the C3 row.
  std::size_t device_row(std::size_t i) const { return active.size() + i; }
  std::size_t station_row() const {
    return active.size() + device_ids.size();
  }
};

ClusterLp build_cluster_lp(const HtaInstance& instance, std::size_t b);

}  // namespace mecsched::assign
