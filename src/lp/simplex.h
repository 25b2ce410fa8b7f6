// Two-phase bounded-variable revised primal simplex.
//
// Solves general-form `Problem`s (see problem.h) by augmenting inequality
// rows with slack variables and a full set of artificial variables for the
// phase-1 start. There is one code path: the augmented tableau is held as
// CSC columns, the basis as a Markowitz-ordered sparse LU kept current
// with product-form eta-file updates between bounded refactorizations
// (lp/basis_lu.h), and the entering column is chosen by Dantzig pricing
// (most negative reduced cost), switching to Bland's rule after a run of
// degenerate pivots to guarantee termination. All per-solve scratch lives
// in the per-thread `SimplexWorkspace` arena so warm re-entries run
// allocation-free.
//
// This is the Step-1 engine of LP-HTA. It is exact (up to floating-point
// tolerances), deterministic, and checked in the test suite against the
// sparse interior-point solver and the LP certificate
// (tests/lp/simplex_oracle_test.cpp, cross_check_test.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common/deadline.h"

#include "lp/problem.h"
#include "lp/solution.h"

namespace mecsched::lp {

struct SimplexOptions {
  std::size_t max_iterations = 50'000;
  // Basis-drift bound: the eta-file kernel refactorizes after this many
  // eta updates (sooner on fill growth or an accuracy trigger — see
  // lp/basis_lu.h).
  std::size_t refactor_period = 64;
  // Consecutive degenerate pivots before switching to Bland's rule.
  std::size_t bland_trigger = 50;
  double tolerance = 1e-9;
  // Cooperative budget, checked once per pivot. On expiry during phase 2
  // the solver returns SolveStatus::kDeadline with the current basic
  // feasible solution (anytime contract, see solution.h); during phase 1
  // it returns kDeadline with an empty `x`. A token without its own
  // deadline picks up the process default budget (--budget-ms).
  CancellationToken cancel{};
};

class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  // Solves and reports into the obs layer: span "lp.simplex.solve",
  // counters lp.simplex.{solves,pivots,phase1_pivots,crash_feasible,
  // non_optimal,refactorizations,eta_updates,eta_rejections,
  // workspace_reuses,workspace_grows} and the pivots-per-solve histogram.
  Solution solve(const Problem& problem) const;

  // Warm-started solve. `guess` holds one value per problem variable and
  // is snapped to each variable's nearest finite bound to form the start
  // point. The crash basis then labels that point: an inequality row whose
  // slack can absorb the residual starts with the slack basic, and an
  // equality row the point satisfies exactly starts with one of its
  // structural columns basic (at its snapped value) instead of a
  // zero-valued artificial, when a column exists whose other nonzeros all
  // lie in slack-basic rows. Only rows left with a positive artificial
  // need phase-1 pivots, so a guess that is feasible skips phase 1, and
  // one that is also optimal takes no pivot at all. Warm starting changes
  // the pivot path, never the optimum: the returned objective equals the
  // cold solve's (asserted in simplex_test.cpp). Counts into
  // lp.simplex.warm_solves. Re-entries on
  // the same thread reuse the workspace arena and the basis kernel's
  // pools, so steady-state re-solves allocate nothing in the pivot loop
  // (tests/lp/workspace_alloc_test.cpp).
  Solution solve(const Problem& problem,
                 const std::vector<double>& guess) const;

 private:
  Solution solve_instrumented(const Problem& problem,
                              const std::vector<double>* guess) const;
  Solution solve_impl(const Problem& problem,
                      const std::vector<double>* guess) const;

  SimplexOptions options_;
};

}  // namespace mecsched::lp
