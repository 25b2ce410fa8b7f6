#include "dense_cholesky.h"

#include <cmath>

#include "common/error.h"

namespace mecsched::lp {

Cholesky::Cholesky(const Matrix& a) {
  MECSCHED_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  const std::size_t n = a.rows();
  l_ = Matrix(n, n);

  // Pivot floor relative to the matrix scale; pivots below this get bumped.
  const double scale = std::max(a.max_abs(), 1.0);
  const double floor = 1e-12 * scale;

  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < n && k < j; ++k) {
      diag -= l_(j, k) * l_(j, k);
    }
    if (diag < floor) {
      // Regularize: shift this pivot up to the floor. IPM systems only
      // become semidefinite, never strongly indefinite, so a large negative
      // pivot signals a modelling bug and is rejected.
      if (diag < -1e-6 * scale) {
        throw SolverError("Cholesky: matrix is indefinite");
      }
      regularization_ += floor - diag;
      diag = floor;
    }
    const double ljj = std::sqrt(diag);
    l_(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l_(i, k) * l_(j, k);
      l_(i, j) = v / ljj;
    }
  }
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  const std::size_t n = l_.rows();
  MECSCHED_REQUIRE(b.size() == n, "Cholesky solve size mismatch");

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    const double* li = l_.row(i);
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * y[k];
    y[i] = v / li[i];
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= l_(k, ii) * x[k];
    x[ii] = v / l_(ii, ii);
  }
  return x;
}

}  // namespace mecsched::lp
