// Compressed sparse row (CSR) matrix for the LP solvers' sparse kernels.
//
// The HTA constraint matrices are block sparse by construction: one
// assignment row per task (4 nonzeros), thin coupling rows for device and
// station capacity, and ±1 slack/bound columns. Stored sparsely they carry
// a handful of nonzeros per row, so the interior-point solver's SpMV and
// normal-equation assembly run on the nonzero structure only. See
// docs/lp-kernels.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mecsched::lp {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Builds from (row, col, value) triplets. Duplicate entries sum; exact
  // zeros (including cancelled duplicates) are dropped. Indices must be in
  // range.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  // Value at (r, c): binary search within row r, 0.0 when absent. For
  // tests and spot reads — kernels iterate the CSR arrays directly.
  double operator()(std::size_t r, std::size_t c) const;

  // CSR storage: row r spans [row_ptr()[r], row_ptr()[r+1]) in col_idx()/
  // values(); column indices are strictly ascending within a row.
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  // y = this * x  (x.size() == cols()).
  std::vector<double> multiply(const std::vector<double>& x) const;

  // The transpose — also the CSC view of this matrix (row r of the result
  // is column r of *this), which is how the normal-equation assembly walks
  // columns.
  SparseMatrix transposed() const;

  // Order-dependent 64-bit digest of the sparsity *pattern* (dimensions,
  // row pointers, column indices — not values). Two matrices with equal
  // fingerprints have identical structure, which is what makes a symbolic
  // Cholesky factorization reusable between them (lp/sparse_cholesky.h).
  std::uint64_t pattern_fingerprint() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

// Dense vector helpers of the interior-point iterates.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm_inf(const std::vector<double>& v);

}  // namespace mecsched::lp
