// Unit tests for the CSR matrix: assembly, algebra against the dense
// reference, the pattern fingerprint and the kernel-dispatch policy.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "dense_matrix.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {
namespace {

TEST(SparseMatrixTest, FromTripletsSumsDuplicatesAndDropsZeros) {
  // (0,1) appears twice and sums; (1,0) cancels to exact zero and is
  // dropped from the structure.
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 3,
      {{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 4.0}, {1, 0, -4.0}, {1, 2, -1.0}});
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 0.0);  // structurally absent
  EXPECT_DOUBLE_EQ(a(1, 2), -1.0);
}

TEST(SparseMatrixTest, DenseRoundtrip) {
  Matrix d(3, 4);
  d(0, 0) = 1.5;
  d(1, 3) = -2.0;
  d(2, 1) = 0.25;
  const SparseMatrix a = from_dense(d);
  EXPECT_EQ(a.nnz(), 3u);
  const Matrix back = to_dense(a);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(back(r, c), d(r, c));
    }
  }
}

TEST(SparseMatrixTest, DensityCountsStructuralNonzeros) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(4, 5, {{0, 0, 1.0}, {3, 4, 2.0}});
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_EQ(a.row_ptr(), (std::vector<std::size_t>{0, 1, 1, 1, 2}));
  EXPECT_EQ(a.col_idx(), (std::vector<std::size_t>{0, 4}));
  const SparseMatrix empty = SparseMatrix::from_triplets(0, 0, {});
  EXPECT_EQ(empty.nnz(), 0u);
}

TEST(SparseMatrixTest, MultiplyMatchesDenseReference) {
  mecsched::Rng rng(1234);
  Matrix d(17, 23);
  for (std::size_t r = 0; r < d.rows(); ++r) {
    for (std::size_t c = 0; c < d.cols(); ++c) {
      if (rng.bernoulli(0.2)) d(r, c) = rng.uniform(-3.0, 3.0);
    }
  }
  const SparseMatrix a = from_dense(d);

  std::vector<double> x(d.cols());
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> yr(d.rows());
  for (double& v : yr) v = rng.uniform(-1.0, 1.0);

  const std::vector<double> ax = a.multiply(x);
  const std::vector<double> dx = d.multiply(x);
  ASSERT_EQ(ax.size(), dx.size());
  for (std::size_t i = 0; i < ax.size(); ++i) EXPECT_NEAR(ax[i], dx[i], 1e-12);

  const std::vector<double> aty = a.transposed().multiply(yr);
  const std::vector<double> dty = d.transposed().multiply(yr);
  ASSERT_EQ(aty.size(), dty.size());
  for (std::size_t i = 0; i < aty.size(); ++i) {
    EXPECT_NEAR(aty[i], dty[i], 1e-12);
  }
}

TEST(SparseMatrixTest, TransposedIsExact) {
  const SparseMatrix a = SparseMatrix::from_triplets(
      2, 3, {{0, 2, 7.0}, {1, 0, -1.0}, {1, 2, 2.5}});
  const SparseMatrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at.cols(), 2u);
  EXPECT_EQ(at.nnz(), a.nnz());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_DOUBLE_EQ(at(c, r), a(r, c));
    }
  }
}

TEST(SparseMatrixTest, FingerprintTracksPatternNotValues) {
  const SparseMatrix a =
      SparseMatrix::from_triplets(3, 3, {{0, 1, 1.0}, {2, 2, 2.0}});
  const SparseMatrix same_pattern =
      SparseMatrix::from_triplets(3, 3, {{0, 1, -9.0}, {2, 2, 0.5}});
  const SparseMatrix other_pattern =
      SparseMatrix::from_triplets(3, 3, {{0, 1, 1.0}, {2, 1, 2.0}});
  EXPECT_EQ(a.pattern_fingerprint(), same_pattern.pattern_fingerprint());
  EXPECT_NE(a.pattern_fingerprint(), other_pattern.pattern_fingerprint());
  // Shape participates too: same entries, one extra empty row.
  const SparseMatrix taller =
      SparseMatrix::from_triplets(4, 3, {{0, 1, 1.0}, {2, 2, 2.0}});
  EXPECT_NE(a.pattern_fingerprint(), taller.pattern_fingerprint());
}

}  // namespace
}  // namespace mecsched::lp
