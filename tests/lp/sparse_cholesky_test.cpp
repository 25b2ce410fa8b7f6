// Tests for the symbolic/numeric-split sparse Cholesky on the normal
// equations M = A·D·Aᵀ: agreement with the dense factorization, symbolic
// reuse across numeric refactorizations, the regularization contract and
// the pattern-keyed symbolic cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dense_cholesky.h"
#include "dense_matrix.h"
#include "lp/sparse_cholesky.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {
namespace {

// Random m×n CSR matrix with a guaranteed unit "spine" on the leading
// m×m block, so A has full row rank and M = A·D·Aᵀ is positive definite
// for any d > 0.
SparseMatrix random_full_rank(mecsched::Rng& rng, std::size_t m,
                              std::size_t n, double density) {
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({i, i, 1.0 + rng.uniform(0.0, 1.0)});
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (rng.bernoulli(density)) t.push_back({i, j, rng.uniform(-2.0, 2.0)});
    }
  }
  return SparseMatrix::from_triplets(m, n, std::move(t));
}

// Dense M = A·diag(d)·Aᵀ reference.
Matrix dense_normal(const SparseMatrix& a, const std::vector<double>& d) {
  const Matrix ad = to_dense(a);
  Matrix m(a.rows(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += ad(i, k) * d[k] * ad(j, k);
      }
      m(i, j) = acc;
    }
  }
  return m;
}

TEST(SparseCholeskyTest, SolveMatchesDenseCholesky) {
  mecsched::Rng rng(42);
  const std::size_t m = 40, n = 90;
  const SparseMatrix a = random_full_rank(rng, m, n, 0.08);
  const SparseMatrix at = a.transposed();
  std::vector<double> d(n);
  for (double& v : d) v = rng.uniform(0.1, 5.0);
  std::vector<double> b(m);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);

  const auto sym = std::make_shared<const NormalEquationsSymbolic>(a);
  const NormalCholesky sparse(a, at, d, sym);
  const std::vector<double> xs = sparse.solve(b);

  const Matrix mref = dense_normal(a, d);
  const Cholesky dense(mref);
  const std::vector<double> xd = dense.solve(b);

  ASSERT_EQ(xs.size(), m);
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-7);

  // Independent residual check: M xs == b.
  const std::vector<double> mx = mref.multiply(xs);
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(mx[i], b[i], 1e-6);
}

TEST(SparseCholeskyTest, SymbolicReusesAcrossNumericRefactorizations) {
  mecsched::Rng rng(7);
  const std::size_t m = 48, n = 120;
  const SparseMatrix a = random_full_rank(rng, m, n, 0.05);
  const SparseMatrix at = a.transposed();
  const auto sym = std::make_shared<const NormalEquationsSymbolic>(a);
  EXPECT_EQ(sym->dim(), m);
  EXPECT_EQ(sym->pattern_fingerprint(), a.pattern_fingerprint());
  // L always contains the (permuted) upper triangle of M.
  EXPECT_GE(sym->fill_ratio(), 1.0);
  // The full symmetric pattern of M = A·Aᵀ: rows i and j meet where
  // they share a column of A.
  std::vector<bool> meets(m * m, false);
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t p = at.row_ptr()[c]; p < at.row_ptr()[c + 1]; ++p) {
      for (std::size_t q = at.row_ptr()[c]; q < at.row_ptr()[c + 1]; ++q) {
        meets[at.col_idx()[p] * m + at.col_idx()[q]] = true;
      }
    }
  }
  const auto normal_nnz = static_cast<std::size_t>(
      std::count(meets.begin(), meets.end(), true));
  EXPECT_GE(sym->factor_nnz(), (normal_nnz + m) / 2);

  // Two different IPM-style diagonals over the same symbolic object: both
  // factorizations must solve their own system.
  for (int round = 0; round < 2; ++round) {
    std::vector<double> d(n);
    for (double& v : d) v = rng.uniform(1e-3, 10.0);
    std::vector<double> b(m);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    const NormalCholesky chol(a, at, d, sym);
    const std::vector<double> x = chol.solve(b);
    const std::vector<double> mx = dense_normal(a, d).multiply(x);
    for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(mx[i], b[i], 1e-6);
  }
}

TEST(SparseCholeskyTest, RankDeficientSystemsAreRegularizedNotFatal) {
  // Two identical rows make M exactly singular; the factorization must
  // bump the zero pivot instead of throwing (the IPM drifts here near
  // convergence).
  const SparseMatrix a = SparseMatrix::from_triplets(
      34, 40,
      [] {
        std::vector<Triplet> t;
        for (std::size_t i = 0; i < 33; ++i) t.push_back({i, i, 1.0});
        t.push_back({33, 32, 1.0});  // row 33 duplicates row 32
        return t;
      }());
  const SparseMatrix at = a.transposed();
  const std::vector<double> d(40, 1.0);
  const auto sym = std::make_shared<const NormalEquationsSymbolic>(a);
  const NormalCholesky chol(a, at, d, sym);
  const std::vector<double> x = chol.solve(std::vector<double>(34, 1.0));
  EXPECT_EQ(x.size(), 34u);
  for (const double v : x) EXPECT_TRUE(std::isfinite(v));
}

TEST(SparseCholeskyTest, EmptySystem) {
  const SparseMatrix a = SparseMatrix::from_triplets(0, 5, {});
  const auto sym = std::make_shared<const NormalEquationsSymbolic>(a);
  EXPECT_EQ(sym->dim(), 0u);
  EXPECT_EQ(sym->factor_nnz(), 0u);
  const NormalCholesky chol(a, a.transposed(), std::vector<double>(5, 1.0),
                            sym);
  EXPECT_TRUE(chol.solve({}).empty());
}

TEST(SymbolicFactorCacheTest, HitsReuseAndEvictionRespectsCapacity) {
  mecsched::Rng rng(99);
  SymbolicFactorCache cache(/*capacity=*/1);
  const SparseMatrix a = random_full_rank(rng, 36, 50, 0.1);
  const SparseMatrix b = random_full_rank(rng, 36, 50, 0.1);
  ASSERT_NE(a.pattern_fingerprint(), b.pattern_fingerprint());

  const auto first = cache.analyze(a);
  EXPECT_EQ(cache.size(), 1u);
  // Same pattern (same matrix) — must be the identical shared object.
  EXPECT_EQ(cache.analyze(a).get(), first.get());

  // A second pattern evicts the first at capacity 1...
  const auto second = cache.analyze(b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(second->pattern_fingerprint(), b.pattern_fingerprint());
  // ...but the evicted analysis stays valid through its shared_ptr.
  EXPECT_EQ(first->pattern_fingerprint(), a.pattern_fingerprint());

  SymbolicFactorCache roomy(/*capacity=*/2);
  roomy.analyze(a);
  roomy.analyze(b);
  EXPECT_EQ(roomy.size(), 2u);
  roomy.clear();
  EXPECT_EQ(roomy.size(), 0u);
}

TEST(SymbolicFactorCacheTest, ValueChangesDoNotMissTheCache) {
  SymbolicFactorCache cache(4);
  const SparseMatrix a =
      SparseMatrix::from_triplets(33, 33, [] {
        std::vector<Triplet> t;
        for (std::size_t i = 0; i < 33; ++i) t.push_back({i, i, 2.0});
        return t;
      }());
  // Same pattern, different values: one symbolic analysis serves both (the
  // IPM re-analyzing per iteration would defeat the whole split).
  const SparseMatrix rescaled =
      SparseMatrix::from_triplets(33, 33, [] {
        std::vector<Triplet> t;
        for (std::size_t i = 0; i < 33; ++i) t.push_back({i, i, -7.5});
        return t;
      }());
  EXPECT_EQ(cache.analyze(a).get(), cache.analyze(rescaled).get());
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace mecsched::lp
