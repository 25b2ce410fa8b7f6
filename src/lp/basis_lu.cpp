#include "lp/basis_lu.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace mecsched::lp {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Markowitz threshold-pivoting stability factor: a pivot candidate must be
// at least this fraction of the largest magnitude in its column. The
// classic 0.1 compromise between sparsity (small u) and stability (u = 1
// is partial pivoting).
constexpr double kThresholdU = 0.1;

// Entries below this fraction of the basis' largest magnitude are treated
// as numeric zero during pivot selection.
constexpr double kPivotAbsFloor = 1e-12;

}  // namespace

void BasisLu::factorize(std::size_t m, const std::size_t* col_ptr,
                        const std::size_t* rows, const double* values) {
  m_ = m;
  l_steps_.clear();
  l_row_.clear();
  l_val_.clear();
  u_rows_.clear();
  u_step_.clear();
  u_val_.clear();
  eta_ptr_.assign(1, 0);
  eta_pivot_row_.clear();
  eta_pivot_val_.clear();
  eta_row_.clear();
  eta_val_.clear();
  lower_nnz_ = 0;
  upper_nnz_ = 0;
  if (m == 0) return;

  // Working matrix by rows; only active-column entries are ever stored.
  if (work_rows_.size() < m) work_rows_.resize(m);
  for (std::size_t r = 0; r < m; ++r) {
    work_rows_[r].cols.clear();
    work_rows_[r].vals.clear();
  }
  double overall_max = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t p = col_ptr[k]; p < col_ptr[k + 1]; ++p) {
      if (values[p] == 0.0) continue;
      work_rows_[rows[p]].cols.push_back(k);
      work_rows_[rows[p]].vals.push_back(values[p]);
      overall_max = std::max(overall_max, std::fabs(values[p]));
    }
  }
  if (overall_max == 0.0) {
    throw SolverError("basis-lu: zero basis matrix");
  }
  const double abs_floor = kPivotAbsFloor * overall_max;

  step_of_col_.assign(m, kNone);
  // row_active doubles as "step_of_row": kNone until the row is pivotal.
  std::vector<std::size_t>& row_done = work_pat_;  // reuse pool
  row_done.assign(m, 0);
  // Member pools, not locals: mid-solve refactorizations run inside the
  // solver's allocation-free pivot loop.
  col_count_.assign(m, 0);
  col_max_.assign(m, 0.0);
  if (col_rows_.size() < m) col_rows_.resize(m);
  for (std::size_t c = 0; c < m; ++c) col_rows_[c].clear();
  // Column counts are maintained incrementally through the elimination;
  // col_rows_ is a column -> candidate-rows transpose that tolerates stale
  // entries (retired rows, exact cancellations) by verifying against the
  // live row on use. Fill-in appends, nothing is ever removed.
  for (std::size_t r = 0; r < m; ++r) {
    for (const std::size_t c : work_rows_[r].cols) {
      ++col_count_[c];
      col_rows_[c].push_back(r);
    }
  }
  // Every column whose count becomes 1 gets its bit set; a bit whose
  // column has since moved on is dropped when the search reaches it.
  singletons_.assign((m + 63) / 64, 0);
  const auto mark_if_singleton = [&](std::size_t c) {
    if (col_count_[c] == 1) singletons_[c / 64] |= std::uint64_t{1} << (c % 64);
  };
  for (std::size_t c = 0; c < m; ++c) mark_if_singleton(c);

  for (std::size_t step = 0; step < m; ++step) {
    std::size_t best_r = kNone, best_c = kNone;
    double best_v = 0.0;

    // Column singletons first: eliminating one performs no row operations
    // and threshold stability holds trivially (the sole entry *is* its
    // column's maximum). HTA bases are near-triangular — slack and
    // artificial columns start as singletons and retiring their rows
    // cascades new ones — so almost every step short-circuits here instead
    // of paying the full Markowitz scan. Lowest column index first keeps
    // the factorization deterministic; the bitset yields it without
    // rescanning every column.
    for (std::size_t word = 0; word < singletons_.size() && best_r == kNone;
         ++word) {
      std::uint64_t bits = singletons_[word];
      while (bits != 0 && best_r == kNone) {
        const int low = std::countr_zero(bits);
        const std::uint64_t bit = std::uint64_t{1} << low;
        bits &= bits - 1;
        const std::size_t c = word * 64 + static_cast<std::size_t>(low);
        if (col_count_[c] != 1 || step_of_col_[c] != kNone) {
          singletons_[word] &= ~bit;  // stale: the column moved on
          continue;
        }
        for (const std::size_t r : col_rows_[c]) {
          if (row_done[r] != 0) continue;
          const WorkRow& row = work_rows_[r];
          for (std::size_t i = 0; i < row.cols.size(); ++i) {
            if (row.cols[i] != c) continue;
            // A sole entry below the numeric-zero floor is not a usable
            // pivot; leave the column for the full scan's singular check.
            if (std::fabs(row.vals[i]) >= abs_floor) {
              best_r = r;
              best_c = c;
              best_v = row.vals[i];
            }
            break;
          }
          if (best_r != kNone) break;
        }
      }
    }

    if (best_r == kNone) {
      // No singleton: full Markowitz scan, cost (rowcount-1)(colcount-1)
      // over stable candidates; ties break on (column, row) index so the
      // factorization is deterministic. Only the column maxima (for the
      // stability threshold) need recomputing over the active submatrix.
      std::fill(col_max_.begin(), col_max_.end(), 0.0);
      for (std::size_t r = 0; r < m; ++r) {
        if (row_done[r] != 0) continue;
        const WorkRow& row = work_rows_[r];
        for (std::size_t i = 0; i < row.cols.size(); ++i) {
          col_max_[row.cols[i]] =
              std::max(col_max_[row.cols[i]], std::fabs(row.vals[i]));
        }
      }
      std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t r = 0; r < m; ++r) {
        if (row_done[r] != 0) continue;
        const WorkRow& row = work_rows_[r];
        const auto row_count = static_cast<std::uint64_t>(row.cols.size());
        for (std::size_t i = 0; i < row.cols.size(); ++i) {
          const std::size_t c = row.cols[i];
          const double v = row.vals[i];
          if (std::fabs(v) < std::max(abs_floor, kThresholdU * col_max_[c])) {
            continue;
          }
          const std::uint64_t cost =
              (row_count - 1) * static_cast<std::uint64_t>(col_count_[c] - 1);
          const bool better =
              cost < best_cost ||
              (cost == best_cost &&
               (c < best_c || (c == best_c && r < best_r)));
          if (better) {
            best_cost = cost;
            best_r = r;
            best_c = c;
            best_v = v;
          }
        }
      }
    }
    if (best_r == kNone) {
      throw SolverError("basis-lu: singular basis during refactorization");
    }

    step_of_col_[best_c] = step;
    row_done[best_r] = 1;

    // Move the pivot row's off-diagonals into U (column ids remapped to
    // step indices after the loop, once every column has one).
    URow urow;
    urow.pivot_row = best_r;
    urow.pivot_col = best_c;
    urow.diag = best_v;
    urow.begin = u_step_.size();
    WorkRow& prow = work_rows_[best_r];
    for (std::size_t i = 0; i < prow.cols.size(); ++i) {
      if (prow.cols[i] == best_c) continue;
      u_step_.push_back(prow.cols[i]);
      u_val_.push_back(prow.vals[i]);
    }
    urow.end = u_step_.size();
    u_rows_.push_back(urow);

    // Retiring the pivot row removes its entries from every column.
    for (const std::size_t c : prow.cols) {
      --col_count_[c];
      mark_if_singleton(c);
    }

    // Eliminate the pivot column from the active rows that hold it — found
    // through the transpose, so a singleton pivot touches nothing. The
    // candidate list can't grow mid-loop (rebuilt rows never re-add the
    // now-inactive pivot column), and a duplicate or stale candidate reads
    // a_rc == 0 and is skipped.
    LStep lstep;
    lstep.pivot_row = best_r;
    lstep.begin = l_row_.size();
    for (std::size_t idx = 0; idx < col_rows_[best_c].size(); ++idx) {
      const std::size_t r = col_rows_[best_c][idx];
      if (row_done[r] != 0) continue;
      WorkRow& row = work_rows_[r];
      double a_rc = 0.0;
      for (std::size_t i = 0; i < row.cols.size(); ++i) {
        if (row.cols[i] == best_c) {
          a_rc = row.vals[i];
          break;
        }
      }
      if (a_rc == 0.0) continue;
      const double mult = a_rc / best_v;
      l_row_.push_back(r);
      l_val_.push_back(mult);

      // row := row - mult * pivot_row, via a dense scratch accumulator.
      work_val_.assign(m, 0.0);
      for (std::size_t i = 0; i < row.cols.size(); ++i) {
        work_val_[row.cols[i]] = row.vals[i];
      }
      work_val_[best_c] = 0.0;
      for (std::size_t i = 0; i < prow.cols.size(); ++i) {
        const std::size_t c = prow.cols[i];
        if (c == best_c) continue;
        work_val_[c] -= mult * prow.vals[i];
      }
      for (const std::size_t c : row.cols) {
        --col_count_[c];
        mark_if_singleton(c);
      }
      row.cols.clear();
      row.vals.clear();
      for (std::size_t c = 0; c < m; ++c) {
        if (step_of_col_[c] != kNone || work_val_[c] == 0.0) continue;
        row.cols.push_back(c);
        row.vals.push_back(work_val_[c]);
        ++col_count_[c];
        mark_if_singleton(c);
        col_rows_[c].push_back(r);
      }
    }
    lstep.end = l_row_.size();
    l_steps_.push_back(lstep);
  }

  // Remap U off-diagonal column ids to the step that eliminated them.
  for (std::size_t& s : u_step_) s = step_of_col_[s];
  lower_nnz_ = l_row_.size() + m;
  upper_nnz_ = u_val_.size() + m;
}

void BasisLu::ftran(double* w) const {
  // L: apply the elimination ops to the right-hand side, in order.
  for (const LStep& step : l_steps_) {
    const double wp = w[step.pivot_row];
    if (wp == 0.0) continue;
    for (std::size_t i = step.begin; i < step.end; ++i) {
      w[l_row_[i]] -= l_val_[i] * wp;
    }
  }
  // U: backward substitution in reverse pivot order. x is assembled per
  // step first (rows and columns interleave freely in w's index space),
  // then scattered to the basis-slot positions.
  const std::size_t k = u_rows_.size();
  work_val_.resize(m_);
  for (std::size_t s = k; s-- > 0;) {
    const URow& u = u_rows_[s];
    double acc = w[u.pivot_row];
    for (std::size_t i = u.begin; i < u.end; ++i) {
      acc -= u_val_[i] * work_val_[u_step_[i]];
    }
    work_val_[s] = acc / u.diag;
  }
  for (std::size_t s = 0; s < k; ++s) {
    w[u_rows_[s].pivot_col] = work_val_[s];
  }
  // Eta file, creation order: w := E_t⁻¹ w.
  for (std::size_t t = 0; t < eta_pivot_row_.size(); ++t) {
    const std::size_t r = eta_pivot_row_[t];
    const double wr = w[r] / eta_pivot_val_[t];
    w[r] = wr;
    if (wr == 0.0) continue;
    for (std::size_t i = eta_ptr_[t]; i < eta_ptr_[t + 1]; ++i) {
      w[eta_row_[i]] -= eta_val_[i] * wr;
    }
  }
}

void BasisLu::btran(double* y) const {
  // Eta transposes, newest first: y_r := (y_r − Σ w_i y_i) / w_r.
  for (std::size_t t = eta_pivot_row_.size(); t-- > 0;) {
    const std::size_t r = eta_pivot_row_[t];
    double acc = y[r];
    for (std::size_t i = eta_ptr_[t]; i < eta_ptr_[t + 1]; ++i) {
      acc -= eta_val_[i] * y[eta_row_[i]];
    }
    y[r] = acc / eta_pivot_val_[t];
  }
  // Uᵀ: forward substitution in pivot order (scatter form). Inputs live at
  // basis-slot (column) positions, outputs at row positions.
  const std::size_t k = u_rows_.size();
  work_val_.resize(m_);
  for (std::size_t s = 0; s < k; ++s) {
    const URow& u = u_rows_[s];
    const double zs = y[u.pivot_col] / u.diag;
    work_val_[s] = zs;
    if (zs == 0.0) continue;
    for (std::size_t i = u.begin; i < u.end; ++i) {
      y[u_rows_[u_step_[i]].pivot_col] -= u_val_[i] * zs;
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    y[u_rows_[s].pivot_row] = work_val_[s];
  }
  // Lᵀ: gather the transposed elimination ops in reverse order.
  for (std::size_t s = l_steps_.size(); s-- > 0;) {
    const LStep& step = l_steps_[s];
    double acc = y[step.pivot_row];
    for (std::size_t i = step.begin; i < step.end; ++i) {
      acc -= l_val_[i] * y[l_row_[i]];
    }
    y[step.pivot_row] = acc;
  }
}

bool BasisLu::push_eta(const double* w, std::size_t r, std::size_t m) {
  double wmax = 0.0;
  for (std::size_t i = 0; i < m; ++i) wmax = std::max(wmax, std::fabs(w[i]));
  const double pivot = w[r];
  // std::max never propagates a NaN out of the norm, so check the pivot's
  // finiteness directly, not just the norm's.
  if (!std::isfinite(wmax) || !std::isfinite(pivot) || pivot == 0.0 ||
      std::fabs(pivot) < limits_.pivot_rel_floor * wmax) {
    return false;  // accuracy trigger: caller refactorizes instead
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (i == r || w[i] == 0.0) continue;
    eta_row_.push_back(i);
    eta_val_.push_back(w[i]);
  }
  eta_ptr_.push_back(eta_row_.size());
  eta_pivot_row_.push_back(r);
  eta_pivot_val_.push_back(pivot);
  return true;
}

bool BasisLu::needs_refactor() const {
  if (eta_count() >= limits_.max_etas) return true;
  const double fill_budget =
      limits_.eta_fill_factor *
      static_cast<double>(std::max<std::size_t>(factor_nnz(), 16));
  return static_cast<double>(eta_nnz()) > fill_budget;
}

void BasisLu::poison() {
  for (URow& u : u_rows_) u.diag = std::nan("");
}

}  // namespace mecsched::lp
