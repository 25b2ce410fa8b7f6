// Two-phase bounded-variable revised primal simplex.
//
// Solves general-form `Problem`s (see problem.h) by augmenting inequality
// rows with slack variables and a full set of artificial variables for the
// phase-1 start. The basis is maintained by a pluggable kernel: the
// default keeps a Markowitz-ordered sparse LU factorization current with
// product-form eta-file updates between bounded refactorizations
// (lp/basis_lu.h); the historical explicit dense inverse survives as an
// escape hatch and differential-testing comparator (lp/basis_dense.h).
// Bland's rule kicks in after a run of degenerate pivots to guarantee
// termination, and all per-solve scratch lives in the per-thread
// `SimplexWorkspace` arena so warm re-entries run allocation-free.
//
// This is the Step-1 engine of LP-HTA. It is exact (up to floating-point
// tolerances), deterministic, and cross-checked in the test suite against
// the interior-point solver and brute-force vertex enumeration.
#pragma once

#include <cstddef>

#include "common/deadline.h"

#include "lp/problem.h"
#include "lp/solution.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {

// Entering-variable selection rule.
//   kDantzig      — most negative reduced cost; simple and fast per
//                   iteration.
//   kDevex        — Forrest–Goldfarb reference weights approximating
//                   steepest edge; one extra BTRAN per pivot but typically
//                   fewer iterations on degenerate LPs. Retained as the
//                   fallback framework steepest edge resets into.
//   kSteepestEdge — reference-framework steepest edge: weights γ_j start
//                   at 1 + ‖A_j‖² each phase and are updated exactly
//                   toward 1 + ‖B⁻¹A_j‖² from the pivot's FTRAN/BTRAN
//                   solves (two extra BTRANs per pivot). Fewest pivots on
//                   the degenerate HTA cluster LPs.
enum class PricingRule { kDantzig, kDevex, kSteepestEdge };

// Basis-update kernel selection.
//   kEtaLu        — sparse LU + product-form eta files (lp/basis_lu.h):
//                   O(nnz) FTRAN/BTRAN/update per pivot, sparse
//                   refactorization. The default.
//   kDenseInverse — explicit dense B⁻¹ with rank-1 updates and an O(m³)
//                   Gauss-Jordan rebuild (lp/basis_dense.h). Kept as the
//                   differential-testing comparator; same pivot contract,
//                   O(m²) per pivot.
enum class BasisKernel { kEtaLu, kDenseInverse };

struct SimplexOptions {
  std::size_t max_iterations = 50'000;
  // Basis-drift bound: the eta-file kernel refactorizes after this many
  // eta updates (sooner on fill growth or an accuracy trigger — see
  // lp/basis_lu.h); the dense kernel rebuilds B⁻¹ every this many pivots.
  std::size_t refactor_period = 64;
  // Consecutive degenerate pivots before switching to Bland's rule.
  std::size_t bland_trigger = 50;
  double tolerance = 1e-9;
  PricingRule pricing = PricingRule::kDantzig;
  BasisKernel basis = BasisKernel::kEtaLu;
  // Column-storage selection for the pricing kernels. The augmented
  // tableau is always held as CSC columns; under kAuto the dispatch
  // policy in lp/sparse_matrix.h decides from its density whether pricing
  // walks the stored nonzeros (O(nnz) per pass) or a dense column copy.
  // Both paths subtract products in ascending row order, so the reduced
  // costs — and the pivot sequence — are bit-identical either way.
  SparseMode sparse_pricing = SparseMode::kAuto;
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
  // counters lp.simplex.{solves,pivots,non_optimal,refactorizations,
  // eta_updates,eta_rejections,workspace_reuses,workspace_grows} and the
  // pivots-per-solve histogram.
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
