#include "lp/scaling.h"

#include <cmath>

#include "common/error.h"

namespace mecsched::lp {

ScaledProblem equilibrate(const Problem& p, int passes) {
  MECSCHED_REQUIRE(passes >= 0, "passes must be non-negative");
  const std::size_t m = p.num_constraints();
  const std::size_t n = p.num_variables();

  ScaledProblem out;
  out.row_scale_.assign(m, 1.0);
  out.col_scale_.assign(n, 1.0);

  // Effective |A_ij| under the current scaling: r_i * |a| * c_j.
  for (int pass = 0; pass < passes; ++pass) {
    // rows
    for (std::size_t r = 0; r < m; ++r) {
      double lo = 0.0, hi = 0.0;
      for (const Term& t : p.constraint(r).terms) {
        const double v =
            out.row_scale_[r] * std::fabs(t.coeff) * out.col_scale_[t.var];
        if (v == 0.0) continue;
        if (lo == 0.0 || v < lo) lo = v;
        if (v > hi) hi = v;
      }
      if (hi > 0.0) out.row_scale_[r] /= std::sqrt(lo * hi);
    }
    // columns
    std::vector<double> col_lo(n, 0.0), col_hi(n, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (const Term& t : p.constraint(r).terms) {
        const double v =
            out.row_scale_[r] * std::fabs(t.coeff) * out.col_scale_[t.var];
        if (v == 0.0) continue;
        if (col_lo[t.var] == 0.0 || v < col_lo[t.var]) col_lo[t.var] = v;
        if (v > col_hi[t.var]) col_hi[t.var] = v;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (col_hi[v] > 0.0) out.col_scale_[v] /= std::sqrt(col_lo[v] * col_hi[v]);
    }
  }

  // Build the scaled problem: x = c_j x', so
  //   cost'_j = cost_j * c_j,  bounds' = bounds / c_j,
  //   A'_rj = r_i * A_rj * c_j,  b'_r = r_i * b_r.
  for (std::size_t v = 0; v < n; ++v) {
    const double c = out.col_scale_[v];
    const double hi = p.upper(v);
    out.scaled_.add_variable(p.cost(v) * c, p.lower(v) / c,
                             std::isfinite(hi) ? hi / c : kInfinity);
  }
  for (std::size_t r = 0; r < m; ++r) {
    const Constraint& con = p.constraint(r);
    std::vector<Term> terms;
    terms.reserve(con.terms.size());
    for (const Term& t : con.terms) {
      terms.push_back(
          {t.var, out.row_scale_[r] * t.coeff * out.col_scale_[t.var]});
    }
    out.scaled_.add_constraint(terms, con.relation,
                               out.row_scale_[r] * con.rhs);
  }
  return out;
}

Solution ScaledProblem::unscale(const Solution& scaled_solution,
                                const Problem& original) const {
  Solution out;
  out.status = scaled_solution.status;
  out.iterations = scaled_solution.iterations;
  if (out.status != SolveStatus::kOptimal) return out;

  MECSCHED_REQUIRE(scaled_solution.x.size() == col_scale_.size(),
                   "scaled solution size mismatch");
  out.x.resize(col_scale_.size());
  for (std::size_t v = 0; v < col_scale_.size(); ++v) {
    out.x[v] = scaled_solution.x[v] * col_scale_[v];
  }
  out.objective = original.objective_value(out.x);
  if (scaled_solution.duals.size() == row_scale_.size()) {
    out.duals.resize(row_scale_.size());
    // y'_r prices the scaled row (r_i * a) x <= r_i b; the original row's
    // dual is y_r = r_i * y'_r.
    for (std::size_t r = 0; r < row_scale_.size(); ++r) {
      out.duals[r] = scaled_solution.duals[r] * row_scale_[r];
    }
  }
  return out;
}

}  // namespace mecsched::lp
