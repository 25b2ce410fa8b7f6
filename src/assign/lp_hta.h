// LP-HTA — the paper's primary contribution (Sec. III.A).
//
// Per cluster:
//   Step 1  solve the LP relaxation P2 (simplex by default, started from
//           each task's cheapest whole placement — see cluster_lp.h; the
//           interior-point engine the paper cites is selectable),
//   Step 2  reshape ξ into the fractional matrix X[i,j,l],
//   Step 3  round each task to argmax_l X[i,j,l],
//   Step 4  repair deadline violations (move to the best deadline-feasible
//           placement; cancel if none exists),
//   Step 5  repair per-device resource overflows (move largest-resource
//           tasks to the base station; cancel if still over),
//   Step 6  repair station resource overflow (move largest-resource tasks
//           to the cloud; cancel if still over).
//
// The LP of a cluster is always feasible because tasks with no
// deadline-feasible placement are cancelled *before* the LP is built (the
// paper's Step-4 cancellation applied eagerly) and the cloud is
// uncapacitated. `LpHtaReport` exposes the quantities of Theorem 2:
// E_LP^(OPT) and Δ (energy growth caused by the repair migrations), from
// which the instance-specific ratio bound 3 + Δ/E_LP is computable.
#pragma once

#include <algorithm>
#include <cstddef>

#include "assign/assigner.h"
#include "lp/simplex.h"
#include "lp/sparse_matrix.h"

namespace mecsched::assign {

enum class LpEngine { kSimplex, kInteriorPoint };

struct LpHtaOptions {
  LpEngine engine = LpEngine::kSimplex;
  // Clusters are independent (Sec. III.A treats them separately), so their
  // LPs can be solved on worker threads. Deterministic either way — the
  // merge order is fixed.
  bool parallel_clusters = false;
  // Solver hygiene (lp/presolve.h, lp/scaling.h). Both preserve the LP
  // optimum exactly; they trade a little setup for smaller / better-
  // conditioned solves. Off by default to keep Step 1 literally P2.
  bool presolve = false;
  bool equilibrate = false;
  // Per-cluster LP iteration budget (simplex pivots / IPM steps). 0 keeps
  // the engine defaults. A too-small budget makes Step 1 throw SolverError
  // ("not optimal (iteration-limit)") — callers that must never abort wrap
  // LP-HTA in a control::FallbackChain.
  std::size_t max_lp_iterations = 0;
  // Sparse-kernel dispatch, forwarded to both LP engines (see
  // lp/sparse_matrix.h). The cluster LPs are block-structured and very
  // sparse — 4 columns per task touching at most 3 rows each — so large
  // clusters clear the kAuto density threshold and get the CSR kernels;
  // small ones keep the dense path. Assignment-preserving either way.
  lp::SparseMode sparse_mode = lp::SparseMode::kAuto;
  // Step-1 simplex tuning, forwarded verbatim to lp::SimplexOptions
  // (ignored by the interior-point engine). The defaults — eta-file LU
  // basis kernel, Dantzig pricing — are the measured-fastest combination
  // on the paper's cluster LPs; kDenseInverse is the differential-testing
  // escape hatch (see lp/simplex.h), and kDevex / kSteepestEdge trade
  // more work per pivot for fewer pivots on degenerate instances.
  // Assignment-preserving: every combination reaches the same optimum.
  lp::PricingRule pricing = lp::PricingRule::kDantzig;
  lp::BasisKernel basis = lp::BasisKernel::kEtaLu;
  // Cooperative solve budget, forwarded to the Step-1 LP engines. On expiry
  // a cluster whose LP holds a usable anytime point (see solution.h) keeps
  // it — Steps 2-6 round and repair it like any relaxation, and the final
  // assignment audit still applies — otherwise Step 1 throws SolverError
  // ("not optimal (deadline)") and a wrapping control::FallbackChain
  // escalates with whatever budget remains.
  CancellationToken cancel{};
};

struct LpHtaReport {
  double lp_objective = 0.0;      // E_LP^(OPT), summed over clusters
  double rounded_energy = 0.0;    // energy right after Step 3
  double final_energy = 0.0;      // energy of the returned assignment
  std::size_t cancelled_infeasible = 0;  // no placement meets the deadline
  std::size_t cancelled_capacity = 0;    // Steps 5/6 ran out of room
  std::size_t lp_iterations = 0;

  // Corollary 1's alternative bound: max E_ij3 / min E_ij1 over the
  // instance (finite only when some task was scheduled).
  double corollary1_bound = 0.0;

  // Δ of Theorem 2: energy added by the Step 4–6 migrations.
  double delta() const { return final_energy - rounded_energy; }
  // Instance-specific bound of Theorem 2: 3 + Δ/E_LP^(OPT).
  double theorem2_bound() const {
    return lp_objective <= 0.0 ? 3.0 : 3.0 + std::max(0.0, delta()) / lp_objective;
  }
  // min of the two published bounds (Corollary 1).
  double ratio_bound() const {
    return corollary1_bound > 0.0 ? std::min(theorem2_bound(), corollary1_bound)
                                  : theorem2_bound();
  }
};

class LpHta : public Assigner {
 public:
  explicit LpHta(LpHtaOptions options = {}) : options_(options) {}

  Assignment assign(const HtaInstance& instance) const override;

  // Budgeted entry point: runs with `options_` plus the given token (the
  // sooner of the two deadlines wins when both are set).
  Assignment assign(const HtaInstance& instance,
                    const CancellationToken& cancel) const override;

  // Like assign(), but also returns the Theorem-2 diagnostics.
  Assignment assign_with_report(const HtaInstance& instance,
                                LpHtaReport& report) const;

  std::string name() const override {
    return options_.engine == LpEngine::kSimplex ? "LP-HTA"
                                                 : "LP-HTA(ipm)";
  }

 private:
  LpHtaOptions options_;
};

}  // namespace mecsched::assign
