#include "dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace mecsched::lp {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* src = row(r);
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = src[c];
  }
  return t;
}

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == cols_, "matrix-vector size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += a[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> Matrix::multiply_transpose(
    const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == rows_, "matrix^T-vector size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = row(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
  }
  return y;
}

Matrix Matrix::multiply(const Matrix& other) const {
  MECSCHED_REQUIRE(cols_ == other.rows_, "matrix-matrix size mismatch");
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      const double* brow = other.row(k);
      double* orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

SparseMatrix from_dense(const Matrix& dense) {
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      triplets.push_back({r, c, dense(r, c)});
    }
  }
  return SparseMatrix::from_triplets(dense.rows(), dense.cols(),
                                     std::move(triplets));
}

Matrix to_dense(const SparseMatrix& sparse) {
  Matrix out(sparse.rows(), sparse.cols());
  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    for (std::size_t p = sparse.row_ptr()[r]; p < sparse.row_ptr()[r + 1];
         ++p) {
      out(r, sparse.col_idx()[p]) = sparse.values()[p];
    }
  }
  return out;
}

}  // namespace mecsched::lp
