#include "lp/basis_dense.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::lp {

void BasisDense::factorize(std::size_t m, const std::size_t* col_ptr,
                           const std::size_t* rows, const double* values) {
  Matrix bmat(m, m);
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t p = col_ptr[c]; p < col_ptr[c + 1]; ++p) {
      bmat(rows[p], c) = values[p];
    }
  }
  Matrix inv = Matrix::identity(m);
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < m; ++r) {
      if (std::fabs(bmat(r, col)) > std::fabs(bmat(piv, col))) piv = r;
    }
    if (std::fabs(bmat(piv, col)) < 1e-12) {
      throw SolverError("simplex: singular basis during refactorization");
    }
    if (piv != col) {
      for (std::size_t c = 0; c < m; ++c) {
        std::swap(bmat(piv, c), bmat(col, c));
        std::swap(inv(piv, c), inv(col, c));
      }
    }
    const double d = bmat(col, col);
    for (std::size_t c = 0; c < m; ++c) {
      bmat(col, c) /= d;
      inv(col, c) /= d;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == col) continue;
      const double f = bmat(r, col);
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < m; ++c) {
        bmat(r, c) -= f * bmat(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  binv_ = std::move(inv);
}

void BasisDense::ftran(double* w) const {
  const std::size_t m = binv_.rows();
  scratch_.assign(w, w + m);
  for (std::size_t r = 0; r < m; ++r) {
    const double* br = binv_.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < m; ++c) acc += br[c] * scratch_[c];
    w[r] = acc;
  }
}

void BasisDense::btran(double* y) const {
  const std::size_t m = binv_.rows();
  scratch_.assign(y, y + m);
  std::fill(y, y + m, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const double f = scratch_[r];
    if (f == 0.0) continue;
    const double* br = binv_.row(r);
    for (std::size_t c = 0; c < m; ++c) y[c] += br[c] * f;
  }
}

void BasisDense::pivot_row(std::size_t r, double* out) const {
  const double* br = binv_.row(r);
  std::copy(br, br + binv_.cols(), out);
}

void BasisDense::update(const double* w, std::size_t r) {
  const std::size_t m = binv_.rows();
  const double piv = w[r];
  if (std::fabs(piv) < 1e-12) {
    throw SolverError("simplex: numerically singular pivot");
  }
  double* br = binv_.row(r);
  for (std::size_t c = 0; c < m; ++c) br[c] /= piv;
  for (std::size_t i = 0; i < m; ++i) {
    if (i == r) continue;
    const double f = w[i];
    if (f == 0.0) continue;
    double* bi = binv_.row(i);
    for (std::size_t c = 0; c < m; ++c) bi[c] -= f * br[c];
  }
}

void BasisDense::poison() {
  if (binv_.rows() > 0) binv_(0, 0) = std::nan("");
}

}  // namespace mecsched::lp
