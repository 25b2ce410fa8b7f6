#include "assign/exact.h"

#include <cmath>
#include <map>

#include "audit/assignment_audit.h"
#include "common/error.h"
#include "lp/problem.h"

namespace mecsched::assign {

using mec::Placement;

Assignment ExactHta::assign(const HtaInstance& instance) const {
  return solve(instance).assignment;
}

Assignment ExactHta::assign(const HtaInstance& instance,
                            const CancellationToken& cancel) const {
  if (cancel.unlimited()) return assign(instance);
  ilp::BnbOptions budgeted = options_;
  budgeted.cancel = cancel.with_deadline(options_.cancel.deadline());
  return ExactHta(budgeted).solve(instance).assignment;
}

ExactResult ExactHta::solve(const HtaInstance& instance) const {
  ExactResult result;
  result.assignment.decisions.assign(instance.num_tasks(),
                                     Decision::kCancelled);
  result.proven_optimal = true;
  const mec::Topology& topo = instance.topology();

  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    std::vector<std::size_t> active;
    for (std::size_t t : instance.cluster_tasks(b)) {
      if (instance.schedulable(t)) active.push_back(t);
    }
    if (active.empty()) continue;

    lp::Problem p;
    std::vector<std::size_t> int_vars;
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::size_t t = active[idx];
      for (std::size_t l = 0; l < 3; ++l) {
        const Placement pl = mec::kAllPlacements[l];
        // Deadline as variable availability: infeasible placements are
        // fixed at zero, which is C1 for binary variables.
        const double ub = instance.meets_deadline(t, pl) ? 1.0 : 0.0;
        int_vars.push_back(
            p.add_variable(instance.energy(t, pl), 0.0, ub));
      }
      p.add_constraint({{idx * 3 + 0, 1.0}, {idx * 3 + 1, 1.0},
                        {idx * 3 + 2, 1.0}},
                       lp::Relation::kEqual, 1.0);
    }
    std::map<std::size_t, std::vector<lp::Term>> device_rows;
    std::vector<lp::Term> station_row;
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const mec::Task& task = instance.task(active[idx]);
      device_rows[task.id.user].push_back({idx * 3 + 0, task.resource});
      station_row.push_back({idx * 3 + 1, task.resource});
    }
    for (auto& [device, terms] : device_rows) {
      p.add_constraint(terms, lp::Relation::kLessEqual,
                       topo.device(device).max_resource);
    }
    p.add_constraint(station_row, lp::Relation::kLessEqual,
                     topo.base_station(b).max_resource);

    const ilp::BnbResult mip = ilp::BranchAndBound(options_).solve(p, int_vars);
    if (mip.status == ilp::BnbStatus::kInfeasible) {
      // Capacity-infeasible cluster (cloud always absorbs tasks, so this
      // only happens when even the mandatory placements cannot fit). The
      // exact semantics of partial cancellation are LP-HTA's territory;
      // report non-optimality instead of guessing.
      result.proven_optimal = false;
      continue;
    }
    if (mip.status == ilp::BnbStatus::kNodeLimit ||
        mip.status == ilp::BnbStatus::kDeadline) {
      result.proven_optimal = false;
    }
    if (mip.x.empty()) continue;

    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      for (std::size_t l = 0; l < 3; ++l) {
        if (std::round(mip.x[idx * 3 + l]) == 1.0) {
          result.assignment.decisions[active[idx]] =
              to_decision(mec::kAllPlacements[l]);
        }
      }
    }
    result.nodes_explored += mip.nodes_explored;
  }

  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    if (result.assignment.decisions[t] == Decision::kCancelled) continue;
    result.energy +=
        instance.energy(t, to_placement(result.assignment.decisions[t]));
  }
  // The exact solver optimizes subject to (C1)–(C5); its output must be
  // feasible outright.
  audit::check_assignment(instance, result.assignment,
                          {.deadlines = true, .capacity = true}, "exact");
  return result;
}

}  // namespace mecsched::assign
