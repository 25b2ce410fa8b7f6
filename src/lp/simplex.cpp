#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "audit/audit.h"
#include "audit/lp_certificate.h"
#include "common/chaos_hook.h"
#include "common/deadline.h"
#include "common/error.h"
#include "lp/basis_lu.h"
#include "lp/workspace.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::lp {
namespace {

enum class VarState : unsigned char { kBasic, kAtLower, kAtUpper };

// The augmented LP (structural + slack + artificial columns) plus all the
// mutable solver state for one solve. Everything is carved out of the
// per-thread SimplexWorkspace arena, the augmented matrix is held as CSC
// columns only, and the basis lives in the workspace's eta-file LU kernel
// (lp/basis_lu.h).
class Tableau {
 public:
  // `guess` (optional, one entry per structural variable) warm-starts the
  // solve: structurals snap to their nearest finite bound, rows whose
  // slack can absorb the residual get a slack-basic crash start, and
  // equality rows the snapped point satisfies get a structural one
  // (crash_structurals). The cold path (guess == nullptr) keeps the
  // historical all-artificial start.
  Tableau(const Problem& p, const SimplexOptions& opt,
          const std::vector<double>* guess, SimplexWorkspace& ws)
      : opt_(opt), ws_(ws), lu_(ws.lu()) {
    ws_.begin_solve();
    const std::size_t m = p.num_constraints();
    m_ = m;
    n_struct_ = p.num_variables();

    // Count slacks first so column indices are stable.
    std::size_t n_slack = 0;
    for (std::size_t r = 0; r < m; ++r) {
      if (p.constraint(r).relation != Relation::kEqual) ++n_slack;
    }
    art_begin_ = n_struct_ + n_slack;
    n_total_ = art_begin_ + m;  // + m artificials

    b_ = ws_.alloc<double>(m);
    lo_ = ws_.alloc<double>(n_total_);
    hi_ = ws_.alloc<double>(n_total_);
    cost_ = ws_.alloc<double>(n_total_);
    x_ = ws_.alloc<double>(n_total_);
    state_ = ws_.alloc<VarState>(n_total_);
    basis_ = ws_.alloc<std::size_t>(m);
    costs_buf_ = ws_.alloc<double>(n_total_);
    cb_ = ws_.alloc<double>(m);
    w_ = ws_.alloc<double>(m);
    rhs_ = ws_.alloc<double>(m);

    std::fill(lo_, lo_ + n_total_, 0.0);
    std::fill(hi_, hi_ + n_total_, kInfinity);
    std::fill(cost_, cost_ + n_total_, 0.0);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      lo_[v] = p.lower(v);
      hi_[v] = p.upper(v);
      cost_[v] = p.cost(v);
    }

    // The problem's row store (lp/problem.h) is read in place: its rows
    // hold no duplicate terms, so the CSC build below counts and fills in
    // one deterministic sweep per pass.
    const std::span<const std::size_t> row_begin = p.row_begin();
    const std::span<const Term> terms = p.terms();
    std::size_t* slack_of = ws_.alloc<std::size_t>(m);
    std::size_t slack = n_struct_;
    for (std::size_t r = 0; r < m; ++r) {
      const Constraint c = p.constraint(r);
      b_[r] = c.rhs;
      slack_of[r] = c.relation == Relation::kEqual ? kNone : slack++;
    }

    // CSC column store for the whole augmented tableau. Filling row-major
    // keeps the rows of every column in ascending order, so every column
    // walk (pricing, basis gather) is in one deterministic order.
    std::size_t nnz = n_slack + m;  // slacks and artificials: one entry each
    for (const Term& t : terms) nnz += t.coeff != 0.0;
    acol_ptr_ = ws_.alloc<std::size_t>(n_total_ + 1);
    acol_row_ = ws_.alloc<std::size_t>(nnz);
    acol_val_ = ws_.alloc<double>(nnz);
    nnz_ = nnz;
    std::fill(acol_ptr_, acol_ptr_ + n_total_ + 1, 0);
    for (const Term& t : terms) {
      if (t.coeff != 0.0) ++acol_ptr_[t.var + 1];
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (slack_of[r] != kNone) ++acol_ptr_[slack_of[r] + 1];
      ++acol_ptr_[art_begin_ + r + 1];
    }
    for (std::size_t j = 0; j < n_total_; ++j) acol_ptr_[j + 1] += acol_ptr_[j];
    std::size_t* next = ws_.alloc<std::size_t>(n_total_);
    std::copy(acol_ptr_, acol_ptr_ + n_total_, next);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t i = row_begin[r]; i < row_begin[r + 1]; ++i) {
        if (terms[i].coeff == 0.0) continue;
        const std::size_t pslot = next[terms[i].var]++;
        acol_row_[pslot] = r;
        acol_val_[pslot] = terms[i].coeff;
      }
      if (slack_of[r] != kNone) {
        const std::size_t pslot = next[slack_of[r]]++;
        acol_row_[pslot] = r;
        acol_val_[pslot] =
            p.constraint(r).relation == Relation::kGreaterEqual ? -1.0 : 1.0;
      }
      // Artificial of row r: single entry, value filled after the crash
      // basis fixes its sign.
      const std::size_t pslot = next[art_begin_ + r]++;
      acol_row_[pslot] = r;
      acol_val_[pslot] = 0.0;
    }

    // Nonbasic start: every non-artificial variable at its (finite) lower
    // bound — or, when warm-starting, at whichever finite bound the guess
    // is nearest to. Artificials absorb the residual with a ±1 coefficient
    // so their phase-1 value is non-negative.
    std::fill(state_, state_ + n_total_, VarState::kAtLower);
    std::fill(x_, x_ + n_total_, 0.0);
    for (std::size_t v = 0; v < art_begin_; ++v) x_[v] = lo_[v];
    if (guess != nullptr) {
      for (std::size_t v = 0; v < n_struct_; ++v) {
        const double g = (*guess)[v];
        if (std::isfinite(hi_[v]) &&
            std::fabs(g - hi_[v]) < std::fabs(g - lo_[v])) {
          state_[v] = VarState::kAtUpper;
          x_[v] = hi_[v];
        }
      }
    }

    double* residual = rhs_;  // scratch; refactorize() will reuse it
    std::copy(b_, b_ + m, residual);
    for (std::size_t v = 0; v < art_begin_; ++v) {
      if (x_[v] == 0.0) continue;
      for (std::size_t pcol = acol_ptr_[v]; pcol < acol_ptr_[v + 1]; ++pcol) {
        residual[acol_row_[pcol]] -= acol_val_[pcol] * x_[v];
      }
    }

    lu_.limits().max_etas = opt_.refactor_period;
    for (std::size_t r = 0; r < m; ++r) {
      const std::size_t art = art_begin_ + r;
      const std::size_t art_entry = acol_ptr_[art];  // its single CSC slot
      if (guess != nullptr && slack_of[r] != kNone) {
        // Crash start: the slack column is ±e_r, so it serves as the basic
        // variable whenever the warm point leaves it non-negative; the
        // row's artificial then starts (and stays) at zero.
        const std::size_t s = slack_of[r];
        const double value = residual[r] * acol_val_[acol_ptr_[s]];
        if (value >= 0.0) {
          basis_[r] = s;
          state_[s] = VarState::kBasic;
          x_[s] = value;
          acol_val_[art_entry] = 1.0;
          continue;
        }
      }
      acol_val_[art_entry] = residual[r] >= 0.0 ? 1.0 : -1.0;
      basis_[r] = art;
      state_[art] = VarState::kBasic;
      x_[art] = std::fabs(residual[r]);
    }
    if (guess != nullptr) crash_structurals(p);
    factorize_basis();
  }

  // Minimizes `costs` (n_total entries) from the current basis. Returns
  // the phase status. `token` is checked once per pivot; on expiry the
  // current point is left intact (it is a basic solution of the phase's
  // system) and kDeadline is returned — the caller decides what of it is
  // reportable. `priced_out` says the caller knows that no column prices
  // in at the current basis: the first pass makes its checks (budget,
  // chaos hook, refactorization) and returns kOptimal without pricing,
  // unless the chaos hook poisoned the basis.
  SolveStatus optimize(const double* costs, const CancellationToken& token,
                       bool priced_out = false) {
    const std::size_t m = m_;
    const double cost_scale = 1.0 + max_abs(costs, n_total_);
    const double dj_tol = opt_.tolerance * cost_scale;
    std::size_t degenerate_run = 0;

    // Everything from here to the end of the loop must stay heap-silent:
    // tests/lp/workspace_alloc_test.cpp counts allocations inside this
    // scope on a warm re-solve and expects zero.
    const internal::PivotLoopScope alloc_probe;

    for (; iterations_ < opt_.max_iterations; ++iterations_) {
      if (token.expired()) return SolveStatus::kDeadline;
      if (chaos::armed()) {
        switch (chaos::probe("simplex", m, n_total_, iterations_)) {
          case chaos::Action::kNone:
            break;
          case chaos::Action::kStall:
          case chaos::Action::kCancel:
            // A stalled pivot loop and a cancelled one look the same from
            // outside: the budget is gone.
            return SolveStatus::kDeadline;
          case chaos::Action::kPoisonNan:
            lu_.poison();
            priced_out = false;  // the pricing guard must see the NaNs
            break;
          case chaos::Action::kError:
            throw SolverError("simplex: injected solver fault");
        }
      }
      if (lu_.needs_refactor()) refactorize();
      if (priced_out) return SolveStatus::kOptimal;

      // Dual prices y = B^-T c_B.
      for (std::size_t r = 0; r < m; ++r) cb_[r] = costs[basis_[r]];
      lu_.btran(cb_);
      const double* y = cb_;

      const bool bland = degenerate_run >= opt_.bland_trigger;
      const std::size_t entering = price(costs, y, dj_tol, bland);
      if (entering == kNone) {
        // NaN reduced costs make every eligibility comparison false, so a
        // poisoned basis would otherwise masquerade as optimal (and phase 1
        // would then report a *wrong* infeasible). Refuse loudly instead.
        for (std::size_t r = 0; r < m; ++r) {
          if (!std::isfinite(y[r])) {
            throw SolverError(
                "simplex: non-finite dual prices (numeric breakdown)");
          }
        }
        return SolveStatus::kOptimal;
      }

      // Column in the current basis frame: w = B^-1 A_entering.
      column_scatter(entering, w_);
      lu_.ftran(w_);

      const double dir = state_[entering] == VarState::kAtLower ? 1.0 : -1.0;

      // Bounded ratio test: the entering variable moves by t in direction
      // `dir`; basic variable r changes by -dir * w[r] * t.
      double t_max = hi_[entering] - lo_[entering];  // bound-flip limit
      std::size_t leave_row = kNone;
      bool leave_at_upper = false;
      for (std::size_t r = 0; r < m; ++r) {
        const double rate = dir * w_[r];
        const std::size_t bv = basis_[r];
        if (rate > opt_.tolerance) {  // basic value decreases toward lo
          const double t = (x_[bv] - lo_[bv]) / rate;
          if (t < t_max - opt_.tolerance ||
              (t < t_max + opt_.tolerance && leave_row == kNone)) {
            t_max = std::max(t, 0.0);
            leave_row = r;
            leave_at_upper = false;
          }
        } else if (rate < -opt_.tolerance && std::isfinite(hi_[bv])) {
          const double t = (hi_[bv] - x_[bv]) / -rate;
          if (t < t_max - opt_.tolerance ||
              (t < t_max + opt_.tolerance && leave_row == kNone)) {
            t_max = std::max(t, 0.0);
            leave_row = r;
            leave_at_upper = true;
          }
        }
      }

      if (!std::isfinite(t_max)) return SolveStatus::kUnbounded;
      degenerate_run = t_max <= opt_.tolerance ? degenerate_run + 1 : 0;

      // Apply the step.
      x_[entering] += dir * t_max;
      for (std::size_t r = 0; r < m; ++r) x_[basis_[r]] -= dir * w_[r] * t_max;

      if (leave_row == kNone) {
        // Bound flip: entering variable crosses to its other bound; the
        // basis is unchanged.
        state_[entering] = state_[entering] == VarState::kAtLower
                               ? VarState::kAtUpper
                               : VarState::kAtLower;
        x_[entering] = state_[entering] == VarState::kAtLower ? lo_[entering]
                                                              : hi_[entering];
        continue;
      }

      const std::size_t leaving = basis_[leave_row];
      state_[leaving] = leave_at_upper ? VarState::kAtUpper : VarState::kAtLower;
      x_[leaving] = leave_at_upper ? hi_[leaving] : lo_[leaving];
      state_[entering] = VarState::kBasic;
      basis_[leave_row] = entering;
      if (lu_.push_eta(w_, leave_row, m)) {
        ++eta_updates_;
      } else {
        // Accuracy trigger: the eta pivot is too small to apply safely.
        // The basis is already updated, so a fresh factorization both
        // absorbs the pivot and clears accumulated drift.
        ++eta_rejections_;
        refactorize();
      }
    }
    return SolveStatus::kIterationLimit;
  }

  // True when the start basis holds no artificial: the crash point is
  // feasible as labelled, so phase 1 has nothing to drive out.
  bool start_is_feasible() const {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] >= art_begin_) return false;
    }
    return true;
  }

  // Magnitude of the right-hand side; scales the phase-1 feasibility test.
  double rhs_scale() const { return 1.0 + max_abs(b_, m_); }

  // Sum of artificial values (phase-1 objective at the current point).
  double artificial_infeasibility() const {
    double total = 0.0;
    for (std::size_t v = art_begin_; v < n_total_; ++v) total += x_[v];
    return total;
  }

  const double* phase1_costs() {
    std::fill(costs_buf_, costs_buf_ + art_begin_, 0.0);
    std::fill(costs_buf_ + art_begin_, costs_buf_ + n_total_, 1.0);
    return costs_buf_;
  }

  const double* phase2_costs() {
    std::copy(cost_, cost_ + n_total_, costs_buf_);
    return costs_buf_;
  }

  // Pins every artificial to zero so phase 2 cannot re-activate them.
  void pin_artificials() {
    for (std::size_t v = art_begin_; v < n_total_; ++v) {
      hi_[v] = 0.0;
      if (state_[v] != VarState::kBasic) x_[v] = 0.0;
    }
  }

  std::vector<double> structural_solution() const {
    return {x_, x_ + n_struct_};
  }

  // Dual prices y = B^-T c_B for the given objective. Rows of the tableau
  // correspond one-to-one (in order) with Problem constraints.
  std::vector<double> duals(const double* costs) const {
    std::vector<double> y(m_);
    for (std::size_t r = 0; r < m_; ++r) y[r] = costs[basis_[r]];
    if (!y.empty()) lu_.btran(y.data());
    return y;
  }

  std::size_t iterations() const { return iterations_; }
  std::uint64_t refactorizations() const { return refactorizations_; }
  std::uint64_t eta_updates() const { return eta_updates_; }
  std::uint64_t eta_rejections() const { return eta_rejections_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  static double max_abs(const double* v, std::size_t n) {
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, std::fabs(v[i]));
    return mx;
  }

  // out := dense image of CSC column j (m entries).
  void column_scatter(std::size_t j, double* out) const {
    std::fill(out, out + m_, 0.0);
    for (std::size_t p = acol_ptr_[j]; p < acol_ptr_[j + 1]; ++p) {
      out[acol_row_[p]] = acol_val_[p];
    }
  }

  // Σ_r v[r]·A_j[r] over the stored nonzeros, ascending row order.
  double col_dot(std::size_t j, const double* v) const {
    double acc = 0.0;
    for (std::size_t p = acol_ptr_[j]; p < acol_ptr_[j + 1]; ++p) {
      acc += v[acol_row_[p]] * acol_val_[p];
    }
    return acc;
  }

  // Structural crash (warm path). An equality row has no slack, so the
  // slack crash leaves its artificial basic — at exactly zero wherever the
  // warm point satisfies the row — and phase 1 would spend one degenerate
  // pivot per such row ejecting it. Instead a structural column of row r
  // becomes basic at its current value and the artificial leaves at zero:
  // a nonbasic column with a nonzero in row r whose other nonzeros all lie
  // in slack-basic rows, preferring one the guess put at a nonzero bound.
  // Each chosen column is then the only non-slack basic column touching
  // its row, so B is a permuted block-triangular matrix with a nonzero
  // diagonal (nonsingular), and the start point is unchanged. A row with
  // no such column keeps its artificial.
  void crash_structurals(const Problem& problem) {
    const auto slack_basic_elsewhere = [&](std::size_t j, std::size_t r) {
      for (std::size_t p = acol_ptr_[j]; p < acol_ptr_[j + 1]; ++p) {
        const std::size_t bv = basis_[acol_row_[p]];
        if (acol_row_[p] != r && (bv < n_struct_ || bv >= art_begin_)) {
          return false;
        }
      }
      return true;
    };
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t art = art_begin_ + r;
      if (basis_[r] != art || x_[art] != 0.0) continue;
      std::size_t pick = kNone;
      for (const Term& t : problem.constraint(r).terms) {
        const std::size_t j = t.var;
        if (std::fabs(t.coeff) <= opt_.tolerance ||
            state_[j] == VarState::kBasic || !slack_basic_elsewhere(j, r)) {
          continue;
        }
        if (x_[j] != 0.0) {
          pick = j;
          break;
        }
        if (pick == kNone) pick = j;
      }
      if (pick == kNone) continue;
      basis_[r] = pick;
      state_[pick] = VarState::kBasic;
      state_[art] = VarState::kAtLower;
    }
  }

  // Gathers the current basis columns (CSC, ascending rows preserved) and
  // hands them to the LU kernel.
  void factorize_basis() {
    if (bcol_ptr_ == nullptr) {
      bcol_ptr_ = ws_.alloc<std::size_t>(m_ + 1);
      bcol_row_ = ws_.alloc<std::size_t>(nnz_);
      bcol_val_ = ws_.alloc<double>(nnz_);
    }
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < m_; ++r) {
      bcol_ptr_[r] = cursor;
      const std::size_t j = basis_[r];
      for (std::size_t p = acol_ptr_[j]; p < acol_ptr_[j + 1]; ++p) {
        bcol_row_[cursor] = acol_row_[p];
        bcol_val_[cursor] = acol_val_[p];
        ++cursor;
      }
    }
    bcol_ptr_[m_] = cursor;
    lu_.factorize(m_, bcol_ptr_, bcol_row_, bcol_val_);
  }

  // Recomputes the basis representation from scratch and refreshes the
  // basic values from the nonbasic ones, clearing the accumulated
  // floating-point drift of the incremental updates.
  void refactorize() {
    ++refactorizations_;
    factorize_basis();

    // x_B = B^-1 (b - N x_N)
    std::copy(b_, b_ + m_, rhs_);
    for (std::size_t v = 0; v < n_total_; ++v) {
      if (state_[v] == VarState::kBasic || x_[v] == 0.0) continue;
      for (std::size_t p = acol_ptr_[v]; p < acol_ptr_[v + 1]; ++p) {
        rhs_[acol_row_[p]] -= acol_val_[p] * x_[v];
      }
    }
    lu_.ftran(rhs_);
    for (std::size_t r = 0; r < m_; ++r) x_[basis_[r]] = rhs_[r];
  }

  // Chooses the entering column: Dantzig (largest improvement rate
  // |c_j - y^T A_j|) normally, Bland (lowest eligible index) when
  // anti-cycling.
  std::size_t price(const double* costs, const double* y, double dj_tol,
                    bool bland) const {
    std::size_t best = kNone;
    double best_rate = dj_tol;
    for (std::size_t j = 0; j < n_total_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      if (hi_[j] - lo_[j] <= opt_.tolerance) continue;  // fixed (artificials)
      const double dj = costs[j] - col_dot(j, y);
      const double rate =
          state_[j] == VarState::kAtLower ? -dj : dj;  // improvement rate
      if (rate > best_rate) {
        best = j;
        best_rate = rate;
        if (bland) break;  // first eligible index
      }
    }
    return best;
  }

  SimplexOptions opt_;
  SimplexWorkspace& ws_;
  BasisLu& lu_;  // workspace-owned; pools persist across solves

  std::size_t m_ = 0;
  std::size_t n_struct_ = 0;
  std::size_t art_begin_ = 0;
  std::size_t n_total_ = 0;
  std::size_t nnz_ = 0;
  std::size_t iterations_ = 0;
  std::uint64_t refactorizations_ = 0;
  std::uint64_t eta_updates_ = 0;
  std::uint64_t eta_rejections_ = 0;

  // Arena-backed solve state (see workspace.h); spans live until the next
  // solve begins.
  double* b_ = nullptr;
  double* lo_ = nullptr;
  double* hi_ = nullptr;
  double* cost_ = nullptr;
  double* x_ = nullptr;
  VarState* state_ = nullptr;
  std::size_t* basis_ = nullptr;
  double* costs_buf_ = nullptr;  // phase objective
  double* cb_ = nullptr;         // basic costs, then duals (BTRAN in place)
  double* w_ = nullptr;          // FTRAN'd entering column
  double* rhs_ = nullptr;        // refactorization right-hand side

  // CSC column store of the augmented tableau.
  std::size_t* acol_ptr_ = nullptr;
  std::size_t* acol_row_ = nullptr;
  double* acol_val_ = nullptr;
  // Basis-column gather buffers for factorization (lazily carved).
  std::size_t* bcol_ptr_ = nullptr;
  std::size_t* bcol_row_ = nullptr;
  double* bcol_val_ = nullptr;
};

}  // namespace

Solution SimplexSolver::solve(const Problem& problem) const {
  return solve_instrumented(problem, nullptr);
}

Solution SimplexSolver::solve(const Problem& problem,
                              const std::vector<double>& guess) const {
  MECSCHED_REQUIRE(guess.size() == problem.num_variables(),
                   "warm-start guess size must match variable count");
  static obs::Counter& warm_solves =
      obs::Registry::global().counter("lp.simplex.warm_solves");
  warm_solves.add();
  return solve_instrumented(problem, &guess);
}

Solution SimplexSolver::solve_instrumented(
    const Problem& problem, const std::vector<double>* guess) const {
  static obs::Histogram& solve_histogram =
      obs::Registry::global().histogram("lp.simplex.solve.seconds");
  const obs::ScopedTimer span(solve_histogram, "lp.simplex.solve", "lp");
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const std::uint64_t chaos_before =
      flight.enabled() ? chaos::local_injections() : 0;
  // Pre-fill the record skeleton lazily: everything below the enabled()
  // gates is skipped on the disabled fast path.
  const auto cut_record = [&](const Solution* solution,
                              const std::string& status,
                              const std::string& detail,
                              const std::string& audit_verdict) {
    obs::SolveRecord r;
    r.layer = "lp";
    r.engine = "simplex";
    r.status = status;
    r.detail = detail;
    r.seconds = span.elapsed_s();
    r.iterations = solution != nullptr ? solution->iterations : 0;
    const CancellationToken token = effective_solve_token(options_.cancel);
    r.deadline_residual_ms =
        obs::FlightRecorder::residual_ms(token.deadline());
    r.deadline_hit =
        solution != nullptr && solution->status == SolveStatus::kDeadline;
    r.warm_start = guess != nullptr;
    r.chaos_hits = chaos::local_injections() - chaos_before;
    r.audit = audit_verdict;
    flight.record(std::move(r));
  };
  Solution out;
  try {
    out = solve_impl(problem, guess);
  } catch (const SolverError& e) {
    if (flight.enabled()) cut_record(nullptr, "error", e.what(), "");
    throw;
  }
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& solves = reg.counter("lp.simplex.solves");
  static obs::Counter& pivots = reg.counter("lp.simplex.pivots");
  static obs::Histogram& pivots_per_solve =
      reg.histogram("lp.simplex.pivots_per_solve");
  solves.add();
  pivots.add(out.iterations);
  pivots_per_solve.observe(static_cast<double>(out.iterations));
  if (!out.optimal()) reg.counter("lp.simplex.non_optimal").add();
  if (out.status == SolveStatus::kDeadline) {
    reg.counter("solve.deadline.simplex").add();
    if (options_.cancel.cancel_requested()) reg.counter("solve.cancelled").add();
  }
  // Certificate audit (no-op at audit level off): the simplex promises a
  // basic optimal solution, warm-started or not.
  audit::LpCertificateOptions cert;
  cert.vertex_expected = true;
  try {
    audit::check_lp(problem, out,
                    guess != nullptr ? "simplex-warm" : "simplex", cert);
  } catch (const audit::AuditError& e) {
    if (flight.enabled()) {
      cut_record(&out, "audit-error", to_string(out.status), e.what());
    }
    throw;
  }
  if (flight.enabled()) cut_record(&out, to_string(out.status), "", "ok");
  return out;
}

Solution SimplexSolver::solve_impl(const Problem& problem,
                                   const std::vector<double>* guess) const {
  Solution out;
  if (problem.num_variables() == 0) {
    out.status = SolveStatus::kOptimal;
    return out;
  }

  const CancellationToken token = effective_solve_token(options_.cancel);
  SimplexWorkspace& ws = SimplexWorkspace::tls();
  const std::uint64_t ws_reuses = ws.reuses();
  const std::uint64_t ws_grows = ws.grows();
  Tableau t(problem, options_, guess, ws);
  // Registry handles are looked up once per process: a lookup builds a
  // map-key string and takes the registry lock, and the references stay
  // valid across Registry::reset().
  obs::Registry& reg = obs::Registry::global();
  static obs::Counter& workspace_reuses =
      reg.counter("lp.simplex.workspace_reuses");
  static obs::Counter& workspace_grows =
      reg.counter("lp.simplex.workspace_grows");
  workspace_reuses.add(ws.reuses() - ws_reuses);
  workspace_grows.add(ws.grows() - ws_grows);
  // Basis-kernel telemetry is flushed once per solve so the pivot loop
  // itself stays free of registry calls.
  const auto report_kernel = [&] {
    static obs::Counter& refactorizations =
        reg.counter("lp.simplex.refactorizations");
    static obs::Counter& eta_updates = reg.counter("lp.simplex.eta_updates");
    static obs::Counter& eta_rejections =
        reg.counter("lp.simplex.eta_rejections");
    refactorizations.add(t.refactorizations());
    eta_updates.add(t.eta_updates());
    eta_rejections.add(t.eta_rejections());
  };

  static obs::Counter& crash_feasible =
      reg.counter("lp.simplex.crash_feasible");
  static obs::Counter& phase1_pivots = reg.counter("lp.simplex.phase1_pivots");
  const bool start_is_feasible = t.start_is_feasible();
  if (start_is_feasible) crash_feasible.add();

  // Phase 1: drive the artificials to zero. On expiry here there is no
  // feasible point to report yet: kDeadline with an empty x. From a start
  // with no artificial basic the phase-1 duals are zero and every reduced
  // cost is non-negative, so phase 1 ends on its first pass, unpriced.
  const SolveStatus phase1 =
      t.optimize(t.phase1_costs(), token, start_is_feasible);
  phase1_pivots.add(t.iterations());
  if (phase1 == SolveStatus::kIterationLimit ||
      phase1 == SolveStatus::kDeadline) {
    out.status = phase1;
    out.iterations = t.iterations();
    report_kernel();
    return out;
  }
  // Phase 1 is bounded below by 0, so kUnbounded cannot occur here.
  if (t.artificial_infeasibility() > 1e-7 * t.rhs_scale()) {
    out.status = SolveStatus::kInfeasible;
    out.iterations = t.iterations();
    report_kernel();
    return out;
  }

  // Phase 2: optimize the real objective with artificials pinned at zero.
  // An expiry here still yields a usable answer: the current point is a
  // basic *feasible* solution (artificials are pinned), merely suboptimal —
  // the anytime half of the kDeadline contract.
  t.pin_artificials();
  const SolveStatus phase2 = t.optimize(t.phase2_costs(), token);
  out.status = phase2;
  out.iterations = t.iterations();
  report_kernel();
  if (phase2 == SolveStatus::kOptimal || phase2 == SolveStatus::kDeadline) {
    out.x = t.structural_solution();
    out.objective = problem.objective_value(out.x);
    out.duals = t.duals(t.phase2_costs());
    for (double v : out.x) {
      if (!std::isfinite(v)) {
        throw SolverError("simplex: non-finite solution (numeric breakdown)");
      }
    }
    if (!std::isfinite(out.objective)) {
      throw SolverError("simplex: non-finite objective (numeric breakdown)");
    }
    // Duals can be degraded at a deadline stop (mid-refactorization drift);
    // drop them rather than report garbage. At optimality they were already
    // proven finite by the pricing guard.
    for (double v : out.duals) {
      if (!std::isfinite(v)) {
        out.duals.clear();
        break;
      }
    }
  }
  return out;
}

}  // namespace mecsched::lp
