#include "lp/sparse_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::lp {

bool use_sparse_kernels(std::size_t rows, std::size_t cols, std::size_t nnz,
                        SparseMode mode) {
  if (mode == SparseMode::kForceDense) return false;
  if (mode == SparseMode::kForceSparse) return true;
  if (rows < kSparseMinRows || cols == 0) return false;
  const double cells = static_cast<double>(rows) * static_cast<double>(cols);
  return static_cast<double>(nnz) <= kSparseDensityThreshold * cells;
}

SparseMatrix SparseMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets) {
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  for (const Triplet& t : triplets) {
    MECSCHED_REQUIRE(t.row < rows && t.col < cols,
                     "sparse triplet index out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  out.row_ptr_.assign(rows + 1, 0);
  out.col_idx_.reserve(triplets.size());
  out.values_.reserve(triplets.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      const std::size_t c = triplets[i].col;
      double v = 0.0;
      for (; i < triplets.size() && triplets[i].row == r && triplets[i].col == c;
           ++i) {
        v += triplets[i].value;
      }
      if (v != 0.0) {
        out.col_idx_.push_back(c);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[r + 1] = out.col_idx_.size();
  }
  return out;
}

SparseMatrix SparseMatrix::from_dense(const Matrix& dense,
                                      double drop_tolerance) {
  SparseMatrix out;
  out.rows_ = dense.rows();
  out.cols_ = dense.cols();
  out.row_ptr_.assign(out.rows_ + 1, 0);
  for (std::size_t r = 0; r < out.rows_; ++r) {
    const double* row = dense.row(r);
    for (std::size_t c = 0; c < out.cols_; ++c) {
      if (std::fabs(row[c]) > drop_tolerance) {
        out.col_idx_.push_back(c);
        out.values_.push_back(row[c]);
      }
    }
    out.row_ptr_[r + 1] = out.col_idx_.size();
  }
  return out;
}

Matrix SparseMatrix::to_dense() const {
  Matrix out(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double* row = out.row(r);
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      row[col_idx_[p]] = values_[p];
    }
  }
  return out;
}

double SparseMatrix::density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

double SparseMatrix::operator()(std::size_t r, std::size_t c) const {
  MECSCHED_REQUIRE(r < rows_ && c < cols_, "sparse index out of range");
  const auto begin = col_idx_.begin() + static_cast<long>(row_ptr_[r]);
  const auto end = col_idx_.begin() + static_cast<long>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == cols_, "sparse matrix-vector size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      acc += values_[p] * x[col_idx_[p]];
    }
    y[r] = acc;
  }
  return y;
}

std::vector<double> SparseMatrix::multiply_transpose(
    const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == rows_, "sparse matrix^T-vector size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      y[col_idx_[p]] += values_[p] * xr;
    }
  }
  return y;
}

SparseMatrix SparseMatrix::transposed() const {
  SparseMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  // Count entries per column, prefix-sum, then scatter. Scanning rows in
  // order writes each output row's entries with ascending column index.
  for (const std::size_t c : col_idx_) ++out.row_ptr_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) out.row_ptr_[c + 1] += out.row_ptr_[c];
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  std::vector<std::size_t> next(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const std::size_t slot = next[col_idx_[p]]++;
      out.col_idx_[slot] = r;
      out.values_[slot] = values_[p];
    }
  }
  return out;
}

namespace {

// splitmix64 finalizer: the project's standard bit mixer (common/rng.cpp,
// exec/fingerprint.cpp use the same constants).
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

std::uint64_t SparseMatrix::pattern_fingerprint() const {
  std::uint64_t h = 0x6d656373ULL;  // "mecs"
  h = mix64(h, rows_);
  h = mix64(h, cols_);
  for (const std::size_t p : row_ptr_) h = mix64(h, p);
  for (const std::size_t c : col_idx_) h = mix64(h, c);
  return h;
}

}  // namespace mecsched::lp
