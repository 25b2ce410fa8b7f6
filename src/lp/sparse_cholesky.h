// Sparse Cholesky for the interior-point normal equations M = A·D·Aᵀ,
// split into a symbolic phase (pattern-only, expensive, reusable) and a
// numeric phase (values-only, cheap, per IPM iteration).
//
// The split exploits two invariances of the IPM:
//   * within one solve, D changes every iteration but the pattern of
//     M = A·diag(d)·Aᵀ does not (d > 0 throughout), so the fill-reducing
//     ordering, elimination tree and factor structure are computed once;
//   * across solves, LPs built from the same HTA constraint shape (e.g.
//     adjacent sweep cells, churn epochs over a stable topology) share the
//     constraint pattern, so `SymbolicFactorCache` memoizes the symbolic
//     analysis by `SparseMatrix::pattern_fingerprint()`.
//
// The ordering is a deterministic greedy minimum-degree heuristic (an
// AMD-style fill reducer; ties break on the lowest vertex index). The
// numeric factorization is an up-looking sparse Cholesky over the
// elimination-tree row structure, with the same diagonal-regularization
// contract as the dense reference its tests compare against
// (tests/lp/dense_cholesky.h): pivots below the relative floor are bumped,
// strongly indefinite matrices throw SolverError.
//
// Reports into obs: lp.sparse.pattern_cache_{hits,misses,evictions}
// counters, lp.sparse.last_{nnz,factor_nnz,fill_ratio,ordering_seconds}
// gauges and the lp.sparse.fill_ratio histogram.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lp/sparse_matrix.h"

namespace mecsched::lp {

// Pattern-only analysis of M = A·D·Aᵀ for one CSR matrix A: the pattern
// of M, the fill-reducing permutation, the elimination tree and the
// column structure of the factor L. Immutable once built; share freely
// across threads and numeric factorizations.
class NormalEquationsSymbolic {
 public:
  explicit NormalEquationsSymbolic(const SparseMatrix& a);

  std::size_t dim() const { return m_; }
  // Structural nonzeros of the Cholesky factor L.
  std::size_t factor_nnz() const { return l_ptr_.empty() ? 0 : l_ptr_[m_]; }
  // nnz(L) / nnz(upper(M)) — 1.0 means the ordering produced no fill-in.
  double fill_ratio() const;
  // Wall-clock spent on ordering + symbolic factorization (gauge fodder).
  double analysis_seconds() const { return analysis_seconds_; }
  // Fingerprint of the A pattern this analysis was computed for.
  std::uint64_t pattern_fingerprint() const { return fingerprint_; }

 private:
  friend class NormalCholesky;

  std::size_t m_ = 0;
  std::uint64_t fingerprint_ = 0;
  double analysis_seconds_ = 0.0;

  // Full symmetric pattern of M, CSR (row i: [m_ptr_[i], m_ptr_[i+1])).
  std::vector<std::size_t> m_ptr_;
  std::vector<std::size_t> m_col_;

  // Fill-reducing permutation: perm_[k] = original index eliminated k-th;
  // iperm_ is its inverse.
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> iperm_;

  // Upper-triangular pattern of the permuted M in CSC (column k holds the
  // rows i <= k, ascending), plus a map from each C entry to the position
  // of the same logical entry in the M CSR arrays.
  std::vector<std::size_t> c_ptr_;
  std::vector<std::size_t> c_row_;
  std::vector<std::size_t> c_from_m_;

  // Elimination tree of C and the column pointers of L (CSC).
  std::vector<std::size_t> parent_;  // m_ == no parent
  std::vector<std::size_t> l_ptr_;
};

// Shared, process-wide LRU cache of symbolic analyses keyed by the A
// pattern fingerprint. Sweep workers share it (thread-safe); entries are
// immutable shared_ptrs, so a concurrent eviction never invalidates a
// factorization in flight.
class SymbolicFactorCache {
 public:
  static SymbolicFactorCache& global();

  explicit SymbolicFactorCache(std::size_t capacity = 64);

  // Returns the cached analysis for `a`'s pattern, computing and inserting
  // it on a miss.
  std::shared_ptr<const NormalEquationsSymbolic> analyze(const SparseMatrix& a);

  std::size_t size() const;
  void clear();

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// Numeric factorization of M = A·diag(d)·Aᵀ over a shared symbolic
// analysis. `at` must be `a.transposed()` (callers keep it around because
// the IPM needs Aᵀ anyway); `d` must be componentwise nonnegative.
class NormalCholesky {
 public:
  NormalCholesky(const SparseMatrix& a, const SparseMatrix& at,
                 const std::vector<double>& d,
                 std::shared_ptr<const NormalEquationsSymbolic> symbolic);

  // Solves (A·D·Aᵀ) x = b through the permuted factor.
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  std::shared_ptr<const NormalEquationsSymbolic> sym_;
  // L in CSC over the symbolic column pointers; each column stores its
  // diagonal entry first, then the below-diagonal rows in elimination
  // order.
  std::vector<std::size_t> l_row_;
  std::vector<double> l_val_;
};

}  // namespace mecsched::lp
