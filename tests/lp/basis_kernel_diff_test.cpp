// Differential suite: the eta-file LU basis kernel (BasisKernel::kEtaLu)
// must reach the same optimum as the historical dense-inverse kernel
// (BasisKernel::kDenseInverse) on seeded HTA-shaped, degenerate and
// bound-flip-heavy instances, cold and warm-started. The two kernels
// compute duals with different floating-point operation orders, so pivot
// paths may diverge at near-ties — the contract is the optimum (objective,
// vertex, feasibility), not the pivot count, and comparisons are
// tolerance-based where the bit-identity harness in
// sparse_dense_diff_test.cpp compares exactly.
//
// Also here: the eta-accumulation stress test — a long eta file (huge
// refactor budget) against refactorization after every pivot — asserting
// drift stays inside the LpCertificate tolerances (solves run under
// audit::Level::kFull, so each one is certificate-checked too).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "audit/audit.h"
#include "common/rng.h"
#include "lp/problem.h"
#include "lp/simplex.h"

namespace mecsched::lp {
namespace {

// Random feasible-by-construction boxed LP (same generator family as
// sparse_dense_diff_test.cpp).
Problem random_boxed_lp(mecsched::Rng& rng, std::size_t n, std::size_t m,
                        double row_density) {
  Problem p;
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ub = rng.uniform(0.5, 3.0);
    p.add_variable(rng.uniform(-5.0, 5.0), 0.0, ub);
    x0[i] = rng.uniform(0.0, ub);
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<Term> terms;
    double lhs_at_x0 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(row_density)) continue;
      const double c = rng.uniform(-2.0, 2.0);
      terms.push_back({i, c});
      lhs_at_x0 += c * x0[i];
    }
    if (terms.empty()) continue;
    p.add_constraint(std::move(terms), Relation::kLessEqual,
                     lhs_at_x0 + rng.uniform(0.1, 2.0));
  }
  return p;
}

// HTA-relaxation-shaped LP: the fig2a sweep-cell structure — one "pick one
// of 3 placements" equality row per task plus capacity rows.
Problem hta_shaped_lp(mecsched::Rng& rng, std::size_t tasks,
                      std::size_t capacity_rows) {
  Problem p;
  std::vector<std::array<std::size_t, 3>> vars(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t l = 0; l < 3; ++l) {
      vars[t][l] = p.add_variable(rng.uniform(0.1, 10.0), 0.0, 1.0);
    }
    p.add_constraint({{vars[t][0], 1.0}, {vars[t][1], 1.0}, {vars[t][2], 1.0}},
                     Relation::kEqual, 1.0);
  }
  for (std::size_t c = 0; c < capacity_rows; ++c) {
    std::vector<Term> cap;
    for (std::size_t t = c; t < tasks; t += capacity_rows) {
      cap.push_back({vars[t][c % 3], rng.uniform(0.5, 2.0)});
    }
    if (cap.empty()) continue;
    p.add_constraint(std::move(cap), Relation::kLessEqual,
                     static_cast<double>(tasks));
  }
  return p;
}

// Heavily degenerate HTA shape: every placement of a task costs the same
// (pricing ties everywhere) and the capacity rows are exactly binding at
// the one-per-task vertex (degenerate ratio tests, Bland territory).
Problem degenerate_lp(mecsched::Rng& rng, std::size_t tasks) {
  Problem p;
  std::vector<std::array<std::size_t, 3>> vars(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const double cost = rng.uniform(1.0, 4.0);  // tie across placements
    for (std::size_t l = 0; l < 3; ++l) {
      vars[t][l] = p.add_variable(cost, 0.0, 1.0);
    }
    p.add_constraint({{vars[t][0], 1.0}, {vars[t][1], 1.0}, {vars[t][2], 1.0}},
                     Relation::kEqual, 1.0);
  }
  // Capacity exactly equal to the number of contributing tasks: binding
  // with zero slack whenever every such task picks placement 0.
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<Term> cap;
    for (std::size_t t = c; t < tasks; t += 3) cap.push_back({vars[t][0], 1.0});
    const auto count = cap.size();
    if (cap.empty()) continue;
    p.add_constraint(std::move(cap), Relation::kLessEqual,
                     static_cast<double>(count));
  }
  return p;
}

// Bound-flip-heavy boxed LP: mixed-sign costs and a single loose coupling
// row, so most variables resolve by flipping between their finite bounds
// rather than entering the basis.
Problem bound_flip_lp(mecsched::Rng& rng, std::size_t n) {
  Problem p;
  std::vector<Term> row;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = lo + rng.uniform(0.5, 2.5);
    p.add_variable(rng.bernoulli(0.5) ? rng.uniform(0.2, 3.0)
                                      : rng.uniform(-3.0, -0.2),
                   lo, hi);
    row.push_back({i, rng.uniform(0.1, 1.0)});
  }
  p.add_constraint(std::move(row), Relation::kLessEqual,
                   static_cast<double>(n));  // loose: rarely binding
  return p;
}

SimplexOptions with_kernel(BasisKernel kernel,
                           PricingRule pricing = PricingRule::kDantzig) {
  SimplexOptions o;
  o.basis = kernel;
  o.pricing = pricing;
  return o;
}

// The two kernels may take different pivot paths (ulp-level dual
// differences at ties), so agreement is on the optimum itself.
void expect_kernels_agree(const Problem& p, const char* label,
                          PricingRule pricing = PricingRule::kDantzig,
                          const std::vector<double>* guess = nullptr) {
  const SimplexSolver lu_solver(with_kernel(BasisKernel::kEtaLu, pricing));
  const SimplexSolver dense_solver(
      with_kernel(BasisKernel::kDenseInverse, pricing));
  const Solution lu = guess ? lu_solver.solve(p, *guess) : lu_solver.solve(p);
  const Solution dense =
      guess ? dense_solver.solve(p, *guess) : dense_solver.solve(p);
  ASSERT_TRUE(lu.optimal()) << label;
  ASSERT_TRUE(dense.optimal()) << label;

  const double scale = 1.0 + std::fabs(dense.objective);
  EXPECT_NEAR(lu.objective, dense.objective, 1e-7 * scale) << label;
  EXPECT_LE(p.max_violation(lu.x), 1e-7) << label;
  EXPECT_LE(p.max_violation(dense.x), 1e-7) << label;

  // Same optimum. The vertex can differ only when the optimal face is not
  // a point (primal degeneracy of the objective); on these generators the
  // optimum is almost surely unique, so compare the point too.
  ASSERT_EQ(lu.x.size(), dense.x.size()) << label;
  for (std::size_t i = 0; i < lu.x.size(); ++i) {
    EXPECT_NEAR(lu.x[i], dense.x[i], 1e-6 * scale) << label << " x" << i;
  }
}

class BasisKernelDiff : public ::testing::TestWithParam<int> {};

TEST_P(BasisKernelDiff, AgreesOnHtaShapedLps) {
  // fig2a-shaped cells: the structure the sweep feeds LP-HTA.
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(12, 60));
  const auto caps = static_cast<std::size_t>(rng.uniform_int(2, 6));
  expect_kernels_agree(hta_shaped_lp(rng, tasks, caps), "hta");
}

TEST_P(BasisKernelDiff, AgreesOnRandomBoxedLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 13);
  const Problem p = random_boxed_lp(rng, 40, 30, 0.25);
  expect_kernels_agree(p, "boxed");
  expect_kernels_agree(p, "boxed-devex", PricingRule::kDevex);
}

TEST_P(BasisKernelDiff, AgreesOnDegenerateLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 593 + 41);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(9, 45));
  expect_kernels_agree(degenerate_lp(rng, tasks), "degenerate");
}

TEST_P(BasisKernelDiff, AgreesOnBoundFlipHeavyLps) {
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 71);
  const auto n = static_cast<std::size_t>(rng.uniform_int(20, 80));
  expect_kernels_agree(bound_flip_lp(rng, n), "bound-flip");
}

TEST_P(BasisKernelDiff, AgreesWarmStarted) {
  // Warm starts exercise the crash-basis path of both kernels: slacks,
  // bound-snapped nonbasics and structural columns basic in the task rows
  // the guess satisfies, instead of all-artificial. Steepest edge starts
  // its reference weights from that non-diagonal basis.
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1223 + 97);
  const auto tasks = static_cast<std::size_t>(rng.uniform_int(10, 40));
  const Problem p = hta_shaped_lp(rng, tasks, 3);
  // Hint: placement 0 for every task — feasible for the equalities.
  std::vector<double> guess(p.num_variables(), 0.0);
  for (std::size_t t = 0; t < tasks; ++t) guess[3 * t] = 1.0;
  expect_kernels_agree(p, "warm", PricingRule::kDantzig, &guess);
  expect_kernels_agree(p, "warm-steepest", PricingRule::kSteepestEdge, &guess);
}

INSTANTIATE_TEST_SUITE_P(SeededInstances, BasisKernelDiff,
                         ::testing::Range(0, 12));

TEST(BasisKernelStress, EtaAccumulationStaysWithinCertificateTolerance) {
  // Force the two extremes of the eta/refactor trade-off on the same
  // instances: refactor_period=1 refactorizes after every pivot (ground
  // truth, no eta drift at all), a huge period lets the eta file grow
  // until the fill or accuracy triggers fire. Accumulated drift must stay
  // inside the LpCertificate tolerances — every solve here runs under
  // audit::Level::kFull, so the certificate (primal/dual feasibility,
  // complementary slackness, duality gap) is checked inside solve() and
  // any violation throws.
  audit::ScopedLevel full_audit(audit::Level::kFull);
  for (int seed = 0; seed < 6; ++seed) {
    mecsched::Rng rng(static_cast<std::uint64_t>(seed) * 4337 + 19);
    const Problem p = hta_shaped_lp(rng, 50, 5);

    SimplexOptions fresh;  // ground truth
    fresh.refactor_period = 1;
    SimplexOptions lazy;  // maximal eta accumulation
    lazy.refactor_period = 100'000;

    const Solution a = SimplexSolver(fresh).solve(p);
    const Solution b = SimplexSolver(lazy).solve(p);
    ASSERT_TRUE(a.optimal()) << "seed " << seed;
    ASSERT_TRUE(b.optimal()) << "seed " << seed;
    // 1e-6 relative: the LpCertificate duality-gap tolerance.
    const double scale = 1.0 + std::fabs(a.objective);
    EXPECT_NEAR(a.objective, b.objective, 1e-6 * scale) << "seed " << seed;
    EXPECT_LE(p.max_violation(b.x), 1e-7) << "seed " << seed;
  }
}

TEST(BasisKernelStress, TinyRefactorPeriodMatchesDenseKernel) {
  // Early-refactorization path vs the dense comparator (the dense kernel
  // rebuilds on the same schedule): the LU kernel's per-pivot
  // refactorization must not change the answer.
  mecsched::Rng rng(2027);
  const Problem p = hta_shaped_lp(rng, 30, 4);
  SimplexOptions lu = with_kernel(BasisKernel::kEtaLu);
  lu.refactor_period = 1;
  SimplexOptions dense = with_kernel(BasisKernel::kDenseInverse);
  const Solution a = SimplexSolver(lu).solve(p);
  const Solution b = SimplexSolver(dense).solve(p);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  const double scale = 1.0 + std::fabs(b.objective);
  EXPECT_NEAR(a.objective, b.objective, 1e-7 * scale);
}

}  // namespace
}  // namespace mecsched::lp
