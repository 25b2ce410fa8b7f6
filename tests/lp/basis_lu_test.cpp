// Unit tests for the sparse LU + eta-file basis kernel (lp/basis_lu.h):
// factorization and triangular solves against hand-computed inverses,
// product-form eta updates against freshly factorized replacements, the
// refactorization triggers (budget, fill, accuracy) and the chaos poison
// hook. The solver-level contract (the optimum the sparse IPM certifies)
// lives in simplex_oracle_test.cpp.
#include "lp/basis_lu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace mecsched::lp {
namespace {

// CSC builder for small dense test matrices (column-major input, row-major
// ascending rows per column as the kernel requires).
struct Csc {
  std::vector<std::size_t> ptr{0};
  std::vector<std::size_t> rows;
  std::vector<double> vals;

  // `dense` is column-major: dense[c][r].
  explicit Csc(const std::vector<std::vector<double>>& dense) {
    for (const auto& col : dense) {
      for (std::size_t r = 0; r < col.size(); ++r) {
        if (col[r] == 0.0) continue;
        rows.push_back(r);
        vals.push_back(col[r]);
      }
      ptr.push_back(rows.size());
    }
  }
};

// y = M x for the column-major dense matrix.
std::vector<double> mat_vec(const std::vector<std::vector<double>>& m,
                          const std::vector<double>& x) {
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t c = 0; c < m.size(); ++c) {
    for (std::size_t r = 0; r < m[c].size(); ++r) y[r] += m[c][r] * x[c];
  }
  return y;
}

// y = Mᵀ x.
std::vector<double> mat_t_vec(const std::vector<std::vector<double>>& m,
                            const std::vector<double>& x) {
  std::vector<double> y(m.size(), 0.0);
  for (std::size_t c = 0; c < m.size(); ++c) {
    for (std::size_t r = 0; r < m[c].size(); ++r) y[c] += m[c][r] * x[r];
  }
  return y;
}

std::vector<std::vector<double>> random_well_conditioned(mecsched::Rng& rng,
                                                         std::size_t n,
                                                         double density) {
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (std::size_t c = 0; c < n; ++c) {
    m[c][c] = rng.uniform(1.0, 3.0) * (rng.bernoulli(0.5) ? 1.0 : -1.0);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == c || !rng.bernoulli(density)) continue;
      m[c][r] = rng.uniform(-0.4, 0.4);  // diagonally dominant-ish
    }
  }
  return m;
}

TEST(BasisLuTest, FtranSolvesIdentity) {
  const std::vector<std::vector<double>> eye = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const Csc csc(eye);
  BasisLu lu;
  lu.factorize(3, csc.ptr.data(), csc.rows.data(), csc.vals.data());
  std::vector<double> w = {3.0, -1.0, 2.5};
  lu.ftran(w.data());
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_DOUBLE_EQ(w[1], -1.0);
  EXPECT_DOUBLE_EQ(w[2], 2.5);
}

TEST(BasisLuTest, FtranAndBtranInvertKnownMatrix) {
  // B = [[2,1],[0,3]] column-major: col0=(2,0), col1=(1,3).
  const std::vector<std::vector<double>> b = {{2, 0}, {1, 3}};
  const Csc csc(b);
  BasisLu lu;
  lu.factorize(2, csc.ptr.data(), csc.rows.data(), csc.vals.data());

  // FTRAN: solve B w = (5, 6) => w = ((5 - 2)/2, 2) = (1.5, 2).
  std::vector<double> w = {5.0, 6.0};
  lu.ftran(w.data());
  EXPECT_NEAR(w[0], 1.5, 1e-12);
  EXPECT_NEAR(w[1], 2.0, 1e-12);

  // BTRAN: solve Bᵀ y = (4, 7) => y = (2, (7-2)/3).
  std::vector<double> y = {4.0, 7.0};
  lu.btran(y.data());
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], 5.0 / 3.0, 1e-12);
}

TEST(BasisLuTest, RandomMatricesRoundTrip) {
  mecsched::Rng rng(91);
  for (int iter = 0; iter < 40; ++iter) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
    const auto dense = random_well_conditioned(rng, n, 0.3);
    const Csc csc(dense);
    BasisLu lu;
    lu.factorize(n, csc.ptr.data(), csc.rows.data(), csc.vals.data());

    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);

    // FTRAN(B x) == x.
    std::vector<double> w = mat_vec(dense, x);
    lu.ftran(w.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(w[i], x[i], 1e-9) << "iter " << iter << " ftran " << i;
    }
    // BTRAN(Bᵀ x) == x.
    std::vector<double> y = mat_t_vec(dense, x);
    lu.btran(y.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], x[i], 1e-9) << "iter " << iter << " btran " << i;
    }
  }
}

TEST(BasisLuTest, EtaUpdateMatchesFreshFactorization) {
  // Replace one basis column, push the eta, and check both solves against
  // a from-scratch factorization of the replaced basis.
  mecsched::Rng rng(7);
  for (int iter = 0; iter < 25; ++iter) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 16));
    auto dense = random_well_conditioned(rng, n, 0.35);
    const Csc csc(dense);
    BasisLu lu;
    lu.factorize(n, csc.ptr.data(), csc.rows.data(), csc.vals.data());

    // New column a with a safe pivot in the replaced slot.
    const auto slot = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1));
    std::vector<double> a(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      if (rng.bernoulli(0.4)) a[r] = rng.uniform(-2.0, 2.0);
    }
    a[slot] += 3.0;  // keep the update pivot well away from zero

    // w = B⁻¹ a is the eta column.
    std::vector<double> w = a;
    lu.ftran(w.data());
    ASSERT_TRUE(lu.push_eta(w.data(), slot, n)) << "iter " << iter;
    EXPECT_EQ(lu.eta_count(), 1u);

    dense[slot] = a;  // the updated basis
    const Csc updated(dense);
    BasisLu fresh;
    fresh.factorize(n, updated.ptr.data(), updated.rows.data(),
                    updated.vals.data());

    std::vector<double> x(n);
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);

    std::vector<double> via_eta = x;
    std::vector<double> via_fresh = x;
    lu.ftran(via_eta.data());
    fresh.ftran(via_fresh.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(via_eta[i], via_fresh[i], 1e-8) << "iter " << iter;
    }

    via_eta = x;
    via_fresh = x;
    lu.btran(via_eta.data());
    fresh.btran(via_fresh.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(via_eta[i], via_fresh[i], 1e-8) << "iter " << iter;
    }
  }
}

TEST(BasisLuTest, SingularBasisThrows) {
  // Two identical columns.
  const std::vector<std::vector<double>> b = {{1, 2}, {1, 2}};
  const Csc csc(b);
  BasisLu lu;
  EXPECT_THROW(lu.factorize(2, csc.ptr.data(), csc.rows.data(),
                            csc.vals.data()),
               SolverError);
}

TEST(BasisLuTest, ZeroMatrixThrows) {
  const std::vector<std::size_t> ptr = {0, 0};
  BasisLu lu;
  EXPECT_THROW(lu.factorize(1, ptr.data(), nullptr, nullptr), SolverError);
}

TEST(BasisLuTest, EtaBudgetTriggersRefactor) {
  const std::vector<std::vector<double>> eye = {{1, 0}, {0, 1}};
  const Csc csc(eye);
  BasisLu lu;
  lu.limits().max_etas = 2;
  lu.factorize(2, csc.ptr.data(), csc.rows.data(), csc.vals.data());
  EXPECT_FALSE(lu.needs_refactor());

  std::vector<double> w = {1.0, 0.5};
  ASSERT_TRUE(lu.push_eta(w.data(), 0, 2));
  EXPECT_FALSE(lu.needs_refactor());
  ASSERT_TRUE(lu.push_eta(w.data(), 1, 2));
  EXPECT_TRUE(lu.needs_refactor());  // budget hit

  // Refactorization clears the eta file and the trigger.
  lu.factorize(2, csc.ptr.data(), csc.rows.data(), csc.vals.data());
  EXPECT_EQ(lu.eta_count(), 0u);
  EXPECT_FALSE(lu.needs_refactor());
}

TEST(BasisLuTest, TinyUpdatePivotIsRejected) {
  const std::vector<std::vector<double>> eye = {{1, 0}, {0, 1}};
  const Csc csc(eye);
  BasisLu lu;
  lu.factorize(2, csc.ptr.data(), csc.rows.data(), csc.vals.data());

  // |w_r| is 1e-12 of ‖w‖_∞ — far below the 1e-8 relative floor.
  std::vector<double> w = {1e-12, 1.0};
  EXPECT_FALSE(lu.push_eta(w.data(), 0, 2));
  EXPECT_EQ(lu.eta_count(), 0u);  // rejected etas leave the file unchanged

  std::vector<double> nan_w = {std::nan(""), 1.0};
  EXPECT_FALSE(lu.push_eta(nan_w.data(), 0, 2));
  EXPECT_EQ(lu.eta_count(), 0u);
}

TEST(BasisLuTest, PoisonMakesSolvesNonFinite) {
  const std::vector<std::vector<double>> b = {{2, 0}, {1, 3}};
  const Csc csc(b);
  BasisLu lu;
  lu.factorize(2, csc.ptr.data(), csc.rows.data(), csc.vals.data());
  lu.poison();

  std::vector<double> w = {1.0, 1.0};
  lu.ftran(w.data());
  EXPECT_FALSE(std::isfinite(w[0]) && std::isfinite(w[1]));

  std::vector<double> y = {1.0, 1.0};
  lu.btran(y.data());
  EXPECT_FALSE(std::isfinite(y[0]) && std::isfinite(y[1]));
}

}  // namespace
}  // namespace mecsched::lp
