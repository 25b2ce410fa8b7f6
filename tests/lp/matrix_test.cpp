#include "dense_matrix.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {
namespace {

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(MatrixTest, IdentityHasUnitDiagonal) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, TransposeRoundTrips) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 5;
  m(1, 1) = -2;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t(1, 1), -2.0);
  const Matrix tt = t.transposed();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), m(r, c));
  }
}

TEST(MatrixTest, MultiplyVector) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const auto y = m.multiply(std::vector<double>{1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(MatrixTest, MultiplyTransposeVector) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const auto y = m.multiply_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(MatrixTest, MultiplyMatrix) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
  int v = 1;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = v++;
  const Matrix ab = a.multiply(b);
  EXPECT_DOUBLE_EQ(ab(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(ab(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(ab(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(ab(1, 1), 154.0);
}

TEST(MatrixTest, SizeMismatchesThrow) {
  Matrix m(2, 3);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0}), ModelError);
  EXPECT_THROW(m.multiply_transpose(std::vector<double>{1.0, 2.0, 3.0}),
               ModelError);
  EXPECT_THROW(m.multiply(Matrix(2, 2)), ModelError);
}

TEST(VectorOpsTest, DotAndNormInf) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
}

TEST(MatrixTest, MaxAbs) {
  Matrix m(2, 2);
  m(0, 1) = -7.5;
  m(1, 0) = 3.0;
  EXPECT_DOUBLE_EQ(m.max_abs(), 7.5);
}

}  // namespace
}  // namespace mecsched::lp
