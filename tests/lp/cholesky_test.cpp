#include "dense_cholesky.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace mecsched::lp {
namespace {

TEST(CholeskyTest, SolvesIdentity) {
  const Cholesky c(Matrix::identity(4));
  const auto x = c.solve({1, 2, 3, 4});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[i], static_cast<double>(i) + 1.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(c.regularization(), 0.0);
}

TEST(CholeskyTest, SolvesKnownSpdSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 3;
  const Cholesky c(a);
  // Solve [4 2; 2 3] x = [10; 9] -> x = [1.5, 2]
  const auto x = c.solve({10, 9});
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskyTest, RandomSpdRoundTrip) {
  mecsched::Rng rng(123);
  const std::size_t n = 20;
  // A = G G^T + n I is SPD.
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.uniform(-1, 1);
  Matrix a = g.multiply(g.transposed());
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-5, 5);
  const auto b = a.multiply(x_true);

  const Cholesky c(a);
  const auto x = c.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(CholeskyTest, RegularizesSemidefinite) {
  // Rank-1 matrix: [1 1; 1 1]; semidefinite, needs a pivot bump.
  Matrix a(2, 2, 1.0);
  const Cholesky c(a);
  EXPECT_GT(c.regularization(), 0.0);
  // Solution should still satisfy the (regularized) system approximately.
  const auto x = c.solve({2.0, 2.0});
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(1, 1) = -5;  // strongly indefinite
  EXPECT_THROW(Cholesky{a}, SolverError);
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_THROW(Cholesky{Matrix(2, 3)}, ModelError);
}

TEST(CholeskyTest, SolveRejectsWrongSize) {
  const Cholesky c(Matrix::identity(3));
  EXPECT_THROW(c.solve({1.0}), ModelError);
}

}  // namespace
}  // namespace mecsched::lp
