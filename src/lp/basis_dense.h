// Explicit dense basis-inverse kernel — the historical simplex basis
// representation, kept as the `BasisKernel::kDenseInverse` escape hatch
// and the differential-testing comparator for the eta-file LU kernel
// (lp/basis_lu.h). It maintains B⁻¹ as a dense m×m matrix: O(m²) per
// pivot for the rank-1 update and both solves, and an O(m³) dense
// Gauss-Jordan rebuild on refactorization, regardless of basis sparsity.
// Deliberately not on the lint hot-kernel list: it exists to be the slow,
// simple, auditable reference.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/matrix.h"

namespace mecsched::lp {

class BasisDense {
 public:
  // Builds B⁻¹ from scratch (Gauss-Jordan with partial pivoting) from the
  // basis given as CSC-style columns: the start basis of a solve, or a
  // rebuild clearing accumulated rank-1 drift. Throws SolverError when the
  // basis is numerically singular.
  void factorize(std::size_t m, const std::size_t* col_ptr,
                 const std::size_t* rows, const double* values);

  // w := B⁻¹ w (dense m-vector in place).
  void ftran(double* w) const;

  // y := B⁻ᵀ y (dense m-vector in place).
  void btran(double* y) const;

  // Copies row `r` of B⁻¹ (the pivot row e_rᵀB⁻¹) into `out`.
  void pivot_row(std::size_t r, double* out) const;

  // Rank-1 update after pivoting on row `r` with FTRAN'd column `w`.
  // Throws SolverError on a numerically singular pivot.
  void update(const double* w, std::size_t r);

  // Chaos hook (common/chaos_hook.h, Action::kPoisonNan): poisons one
  // entry of B⁻¹ — the historical injection site.
  void poison();

 private:
  Matrix binv_;
  mutable std::vector<double> scratch_;
};

}  // namespace mecsched::lp
