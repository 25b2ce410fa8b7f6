// Dense Cholesky factorization for symmetric positive-definite systems:
// the test reference for the sparse normal-equations factorization
// (lp/sparse_cholesky.h), which keeps the same regularization contract.
// Near the central-path boundary the IPM's normal equations become
// ill-conditioned, so the factorization applies a tiny diagonal
// regularization when a pivot drops below tolerance instead of failing.
#pragma once

#include <vector>

#include "dense_matrix.h"

namespace mecsched::lp {

class Cholesky {
 public:
  // Factors `a` (must be square, symmetric). Throws SolverError if the
  // matrix is indefinite beyond what regularization can absorb.
  explicit Cholesky(const Matrix& a);

  // Solves L L^T x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  // Total diagonal shift added during factorization (0 when the input was
  // comfortably positive definite). Exposed for diagnostics/tests.
  double regularization() const { return regularization_; }

 private:
  Matrix l_;  // lower-triangular factor
  double regularization_ = 0.0;
};

}  // namespace mecsched::lp
