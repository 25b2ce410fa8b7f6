// Mehrotra predictor–corrector primal-dual interior-point LP solver.
//
// The paper's LP-HTA references Karmarkar's polynomial-time interior method
// [17] for Step 1; this is the modern practical equivalent. The solver
// works on the standard form produced by `to_standard_form` and solves the
// normal equations (A D^2 A^T) dy = r with the sparse split Cholesky
// (lp/sparse_cholesky.h): CSR assembly over the nonzero pattern, one
// cached symbolic analysis per pattern, a numeric factorization per
// iteration. It exists both as the O((n_r m)^3.5)-style engine named by
// the paper and as the independent oracle for the simplex solver.
//
// Limitations (documented, by design): like most IPMs it certifies
// optimality but reports hopeless primal infeasibility as
// kIterationLimit/kInfeasible heuristically. LP-HTA pre-cancels tasks that
// would make its LP infeasible, so this path never triggers in the
// pipeline; the simplex solver is the arbiter elsewhere.
#pragma once

#include "common/deadline.h"

#include "lp/problem.h"
#include "lp/solution.h"

namespace mecsched::lp {

struct InteriorPointOptions {
  std::size_t max_iterations = 200;
  // Cooperative budget, checked once per Mehrotra iteration. On expiry the
  // solver returns SolveStatus::kDeadline with the last centered iterate
  // rounded into the variable bounds (anytime contract, see solution.h —
  // feasibility is not certified, consumers repair or escalate). A token
  // without its own deadline picks up the process default (--budget-ms).
  CancellationToken cancel{};
};

class InteriorPointSolver {
 public:
  explicit InteriorPointSolver(InteriorPointOptions options = {})
      : options_(options) {}

  // Solves and reports into the obs layer: span "lp.ipm.solve", counters
  // lp.ipm.{solves,iterations,non_optimal}, an iterations-per-solve
  // histogram and last-residual/duality-gap gauges.
  Solution solve(const Problem& problem) const;

 private:
  Solution solve_impl(const Problem& problem) const;

  InteriorPointOptions options_;
};

}  // namespace mecsched::lp
