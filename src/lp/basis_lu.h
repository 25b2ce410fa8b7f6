// Sparse LU basis kernel with product-form eta-file updates.
//
// The revised simplex needs four operations on the basis matrix B (the m
// columns of the augmented tableau currently basic): FTRAN (w = B⁻¹a),
// BTRAN (y = B⁻ᵀc), a rank-1 replacement of one column per pivot, and a
// periodic from-scratch refactorization. An explicit dense B⁻¹ would cost
// O(m²) per pivot for the rank-1 update and the BTRAN, plus an O(m³)
// rebuild, no matter how sparse B is. HTA bases are extremely sparse
// (structural columns carry at most a handful of nonzeros,
// slack/artificial columns exactly one), so this kernel factorizes
// B = L·U with Markowitz-ordered threshold pivoting and keeps the
// factorization current between bounded refactorizations with
// product-form eta files:
//
//   B_k = B_0 · E_1 · … · E_k,   E_t = I + (w_t − e_{r_t}) e_{r_t}ᵀ
//
// where w_t = B_{t-1}⁻¹ a_q is the FTRAN'd entering column of pivot t.
// FTRAN solves through L, U and then the etas in creation order; BTRAN
// applies the transposed etas newest-first and then solves Uᵀ, Lᵀ. All
// solves run on the nonzero structure only and skip zero intermediate
// values, so the cost per pivot is O(nnz(L+U) + nnz(etas)), not O(m²).
//
// Refactorization triggers (`needs_refactor()` / a rejected `push_eta`):
//   * the eta file reached the configured pivot budget (the solver's
//     `refactor_period`, a bounded-drift contract),
//   * the eta pool outgrew the factor (fill/spike growth — applying a long
//     eta file costs more than refactorizing),
//   * an update pivot w_r too small relative to ‖w‖_∞ (accuracy trigger —
//     a near-singular eta would amplify drift; the caller refactorizes
//     from the new basis instead).
//
// Everything here is deterministic: Markowitz ties break on the lowest
// (column, row) index and the eta file is an ordered log, so identical
// inputs produce bit-identical factorizations on any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mecsched::lp {

class BasisLu {
 public:
  // Tuning knobs; defaults are set once by the solver from SimplexOptions.
  struct Limits {
    // Max etas between refactorizations (the solver's refactor_period).
    std::size_t max_etas = 64;
    // Refactorize when the eta pool holds more than this many times the
    // factor's nonzeros (fill growth).
    double eta_fill_factor = 4.0;
    // Reject an eta whose pivot satisfies |w_r| < pivot_rel_floor·‖w‖_∞.
    double pivot_rel_floor = 1e-8;
  };

  // Factorizes the m×m basis given as CSC-style columns: column `k` of B
  // spans positions col_ptr[k] .. col_ptr[k+1] of (rows, values). Clears
  // the eta file. Throws SolverError when the basis is numerically
  // singular. Pools keep their capacity across calls.
  void factorize(std::size_t m, const std::size_t* col_ptr,
                 const std::size_t* rows, const double* values);

  // w := B⁻¹ w (dense m-vector in place; zero intermediates are skipped).
  void ftran(double* w) const;

  // y := B⁻ᵀ y (dense m-vector in place).
  void btran(double* y) const;

  // Appends the eta of a pivot that replaced basis column `r` with a
  // column whose FTRAN'd image is `w` (dense m-vector, w[r] the pivot).
  // Returns false — leaving the factorization unchanged — when the pivot
  // fails the accuracy trigger; the caller must then refactorize from the
  // updated basis.
  bool push_eta(const double* w, std::size_t r, std::size_t m);

  // True when the eta file hit a refactorization trigger (budget or fill).
  bool needs_refactor() const;

  // Chaos hook (common/chaos_hook.h, Action::kPoisonNan): poisons every U
  // diagonal so the next FTRAN/BTRAN yields non-finite values and the
  // solver's finite guards must refuse loudly.
  void poison();

  std::size_t eta_count() const { return eta_pivot_row_.size(); }
  std::size_t eta_nnz() const { return eta_row_.size(); }
  std::size_t factor_nnz() const { return lower_nnz_ + upper_nnz_; }

  Limits& limits() { return limits_; }

 private:
  // One elimination step: multipliers applied to the remaining rows.
  // (pivot_row, (row, multiplier)*) — FTRAN scatters, BTRAN gathers.
  struct LStep {
    std::size_t pivot_row;
    std::size_t begin, end;  // span in l_row_ / l_val_
  };

  Limits limits_;
  std::size_t m_ = 0;

  // L as an ordered op-log, U by rows in pivot order. Column ids of U
  // entries are stored as *pivot-step indices* (the column eliminated at
  // that step), which makes both triangular solves index positionally.
  std::vector<LStep> l_steps_;
  std::vector<std::size_t> l_row_;
  std::vector<double> l_val_;

  struct URow {
    std::size_t pivot_row;  // original row id
    std::size_t pivot_col;  // original column id (basis slot)
    double diag;
    std::size_t begin, end;  // off-diagonal span in u_step_ / u_val_
  };
  std::vector<URow> u_rows_;
  std::vector<std::size_t> u_step_;  // pivot-step index of the entry column
  std::vector<double> u_val_;
  std::size_t lower_nnz_ = 0;
  std::size_t upper_nnz_ = 0;

  // Eta file: eta t spans eta_ptr_[t] .. eta_ptr_[t+1] in (eta_row_,
  // eta_val_) and carries its pivot row/value separately.
  std::vector<std::size_t> eta_ptr_{0};
  std::vector<std::size_t> eta_pivot_row_;
  std::vector<double> eta_pivot_val_;
  std::vector<std::size_t> eta_row_;
  std::vector<double> eta_val_;

  // Factorization scratch; also the per-step solution array of the const
  // triangular solves, hence mutable (capacity kept across calls).
  mutable std::vector<double> work_val_;
  std::vector<std::size_t> work_pat_;
  std::vector<std::size_t> step_of_col_;
  // Incremental Markowitz state: active-entry count per column, column
  // maxima (refreshed only on full-scan steps), and a column -> rows
  // transpose with lazy deletion (entries are verified against the live
  // row before use, so retired rows and cancellations can stay behind).
  std::vector<std::size_t> col_count_;
  std::vector<double> col_max_;
  std::vector<std::vector<std::size_t>> col_rows_;
  // Bit c set whenever column c's count drops or rises to 1; the
  // singleton search pops the lowest set bit and clears bits whose column
  // is no longer an active singleton.
  std::vector<std::uint64_t> singletons_;

  struct WorkRow {
    std::vector<std::size_t> cols;
    std::vector<double> vals;
  };
  std::vector<WorkRow> work_rows_;
};

}  // namespace mecsched::lp
