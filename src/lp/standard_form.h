// Conversion of a general-form Problem to the standard form
//
//   minimize    c^T x    subject to  A x = b,  x >= 0
//
// consumed by the interior-point solver:
//   * variables are shifted by their (finite) lower bound,
//   * finite upper bounds become `x + s = hi - lo` rows,
//   * inequality rows gain slack/surplus columns.
//
// A is kept in CSR (lp/sparse_matrix.h), assembled straight from the
// Problem's sparse rows so the block structure of the HTA constraints is
// never densified on the way to the solver.
//
// `recover()` maps a standard-form solution back to the original variable
// space.
#pragma once

#include <vector>

#include "lp/problem.h"
#include "lp/sparse_matrix.h"

namespace mecsched::lp {

struct StandardForm {
  SparseMatrix a;           // m x n equality matrix (CSR)
  std::vector<double> b;    // m
  std::vector<double> c;    // n
  std::size_t n_original;   // leading columns that map to Problem variables
  std::vector<double> shift;  // original lower bounds (n_original)
  double objective_offset = 0.0;  // c_orig . shift

  // Original-space values from a standard-form point.
  std::vector<double> recover(const std::vector<double>& x) const;
};

StandardForm to_standard_form(const Problem& p);

}  // namespace mecsched::lp
