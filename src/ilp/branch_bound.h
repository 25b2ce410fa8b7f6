// LP-based branch-and-bound for mixed 0/1 integer programs.
//
// Solves a general-form lp::Problem in which a designated subset of
// variables must take integer values. Bounds come from the simplex solver;
// branching is most-fractional-first with depth-first traversal, and the
// incumbent prunes by objective. Intended for the *small* exact solves the
// evaluation needs (ground-truth optimum of the HTA instance, empirical
// ratio-bound measurements) — not a production MIP engine, and documented
// as such.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/deadline.h"

#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp/solution.h"

namespace mecsched::ilp {

// kDeadline: the solve budget expired mid-search. The incumbent found so
// far (if any) is in `x`/`objective` and `best_bound` reports the proven
// lower bound at the stop — the anytime half of the budget contract.
enum class BnbStatus { kOptimal, kInfeasible, kNodeLimit, kDeadline };

struct BnbResult {
  BnbStatus status = BnbStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  std::size_t nodes_explored = 0;
  // Proven lower bound on the optimum (minimization) at termination:
  // min over the incumbent and every open node's parent LP bound. Equals
  // `objective` when status == kOptimal; -infinity when the search stopped
  // before the root relaxation bounded anything.
  double best_bound = -std::numeric_limits<double>::infinity();

  // Optimality gap of the incumbent: zero at optimality, +infinity when
  // there is no incumbent or no finite bound.
  double bound_gap() const {
    if (x.empty() || !std::isfinite(best_bound)) {
      return std::numeric_limits<double>::infinity();
    }
    return std::max(objective - best_bound, 0.0);
  }
};

struct BnbOptions {
  std::size_t max_nodes = 200'000;
  // Cooperative budget, checked at every node expansion and threaded into
  // the node LP relaxations. On expiry the search stops with kDeadline and
  // the incumbent/bound pair above. A token without its own deadline picks
  // up the process default budget (--budget-ms).
  CancellationToken cancel{};
};

class BranchAndBound {
 public:
  explicit BranchAndBound(BnbOptions options = {}) : options_(options) {}

  // `integer_vars` lists the variable indices that must be integral.
  BnbResult solve(const lp::Problem& problem,
                  const std::vector<std::size_t>& integer_vars) const;

 private:
  BnbOptions options_;
};

}  // namespace mecsched::ilp
