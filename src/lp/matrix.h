// Dense row-major matrix and the dense vector helpers of the LP solvers.
//
// The solvers themselves work on CSR (lp/sparse_matrix.h): the HTA cluster
// LPs are block-structured and very sparse (each column touches at most 3
// rows), so the simplex LU and the interior-point normal equations run on
// sparse kernels only — see docs/lp-kernels.md. Matrix is the dense view
// SparseMatrix::from_dense/to_dense converts to and from, which the tests
// and their dense oracles use. The vector helpers at the bottom work on
// the interior-point iterates.
#pragma once

#include <cstddef>
#include <vector>

namespace mecsched::lp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  // Pointer to the start of row `r` (contiguous, `cols()` entries).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  Matrix transposed() const;

  // y = this * x  (x.size() == cols()).
  std::vector<double> multiply(const std::vector<double>& x) const;

  // y = this^T * x  (x.size() == rows()).
  std::vector<double> multiply_transpose(const std::vector<double>& x) const;

  // C = this * other.
  Matrix multiply(const Matrix& other) const;

  // Frobenius-norm-style max absolute entry (used for scaling/tolerances).
  double max_abs() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Dense vector helpers shared by the solvers.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm_inf(const std::vector<double>& v);
double norm2(const std::vector<double>& v);
// a += s * b
void axpy(double s, const std::vector<double>& b, std::vector<double>& a);

}  // namespace mecsched::lp
