#include "lp/interior_point.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "audit/audit.h"
#include "audit/lp_certificate.h"
#include "common/chaos_hook.h"
#include "common/error.h"
#include "obs/flight_recorder.h"
#include "lp/sparse_cholesky.h"
#include "lp/sparse_matrix.h"
#include "lp/standard_form.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::lp {
namespace {

// Fraction of the longest step to the boundary the corrector takes.
constexpr double kStepDamping = 0.99;
// Convergence target: relative duality gap and scaled primal/dual
// residuals.
constexpr double kTolerance = 1e-8;

// Max t in [0,1] with v + t*dv >= 0 (componentwise), damped by `damping`.
double max_step(const std::vector<double>& v, const std::vector<double>& dv,
                double damping) {
  double t = 1.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (dv[i] < 0.0) t = std::min(t, -v[i] / dv[i]);
  }
  return std::min(1.0, damping * t);
}

// The normal-equation kernel behind the Mehrotra loop: mul/mul_t apply A
// and Aᵀ (CSR SpMV), factor(d) (re)factors M = A·diag(d)·Aᵀ with the
// symbolic/numeric-split Cholesky, solve applies M⁻¹. The symbolic
// analysis is fetched from the process-wide pattern cache, so repeated
// solves over the same HTA constraint shape (every IPM iteration, every
// adjacent sweep cell) skip the ordering work entirely.
class SparseNormalKernel {
 public:
  explicit SparseNormalKernel(const SparseMatrix& a)
      : a_(a),
        at_(a.transposed()),
        sym_(SymbolicFactorCache::global().analyze(a)) {
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("lp.sparse.last_nnz").set(static_cast<double>(a_.nnz()));
    reg.gauge("lp.sparse.last_factor_nnz")
        .set(static_cast<double>(sym_->factor_nnz()));
    reg.gauge("lp.sparse.last_fill_ratio").set(sym_->fill_ratio());
    reg.histogram("lp.sparse.fill_ratio").observe(sym_->fill_ratio());
  }

  std::vector<double> mul(const std::vector<double>& x) const {
    return a_.multiply(x);
  }
  std::vector<double> mul_t(const std::vector<double>& x) const {
    return at_.multiply(x);
  }

  void factor(const std::vector<double>& d) {
    chol_.emplace(a_, at_, d, sym_);
  }

  std::vector<double> solve(const std::vector<double>& b) const {
    return chol_->solve(b);
  }

 private:
  const SparseMatrix& a_;
  SparseMatrix at_;
  std::shared_ptr<const NormalEquationsSymbolic> sym_;
  std::optional<NormalCholesky> chol_;
};

bool has_nan(const std::vector<double>& v) {
  for (double e : v) {
    if (std::isnan(e)) return true;
  }
  return false;
}

// Mehrotra predictor–corrector loop.
Solution ipm_loop(const Problem& problem, const StandardForm& sf,
                  SparseNormalKernel& kernel,
                  const InteriorPointOptions& options,
                  const CancellationToken& token) {
  Solution out;
  const std::size_t m = sf.a.rows();
  const std::size_t n = sf.a.cols();

  // --- Mehrotra starting point ---------------------------------------
  // x~ = A^T (A A^T)^-1 b ; y~ = (A A^T)^-1 A c ; s~ = c - A^T y~, then
  // shifted into the strictly positive orthant.
  std::vector<double> x, y, s;
  {
    kernel.factor(std::vector<double>(n, 1.0));  // M = A Aᵀ
    x = kernel.mul_t(kernel.solve(sf.b));
    y = kernel.solve(kernel.mul(sf.c));
    s = sf.c;
    const std::vector<double> aty = kernel.mul_t(y);
    for (std::size_t i = 0; i < n; ++i) s[i] -= aty[i];

    double dx = 0.0, ds = 0.0;
    for (double v : x) dx = std::max(dx, -1.5 * v);
    for (double v : s) ds = std::max(ds, -1.5 * v);
    for (double& v : x) v += dx;
    for (double& v : s) v += ds;
    double xs = dot(x, s), sx = 0.0, ss = 0.0;
    for (double v : x) sx += v;
    for (double v : s) ss += v;
    const double dx2 = ss > 0.0 ? 0.5 * xs / ss : 1.0;
    const double ds2 = sx > 0.0 ? 0.5 * xs / sx : 1.0;
    for (double& v : x) v += dx2 + 1e-8;
    for (double& v : s) v += ds2 + 1e-8;
  }

  const double b_scale = 1.0 + norm_inf(sf.b);
  const double c_scale = 1.0 + norm_inf(sf.c);

  // Anytime degradation: round the current interior iterate back to the
  // original variable space and clamp it into the bounds. Unlike the
  // simplex anytime point, feasibility is NOT certified here — consumers
  // repair (LP-HTA Steps 2-6) or escalate (FallbackChain).
  const auto anytime = [&](std::size_t iter,
                           const std::vector<double>& iterate) {
    Solution deg;
    deg.status = SolveStatus::kDeadline;
    deg.iterations = iter;
    deg.x = sf.recover(iterate);
    for (std::size_t i = 0; i < deg.x.size(); ++i) {
      deg.x[i] =
          std::min(std::max(deg.x[i], problem.lower(i)), problem.upper(i));
    }
    deg.objective = problem.objective_value(deg.x);
    return deg;
  };

  bool poison_next_factor = false;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    if (token.expired()) return anytime(iter, x);
    if (chaos::armed()) {
      switch (chaos::probe("ipm", m, n, iter)) {
        case chaos::Action::kNone:
          break;
        case chaos::Action::kStall:
        case chaos::Action::kCancel:
          return anytime(iter, x);
        case chaos::Action::kPoisonNan:
          poison_next_factor = true;
          break;
        case chaos::Action::kError:
          throw SolverError("interior-point: injected solver fault");
      }
    }
    // Residuals.
    std::vector<double> rb = kernel.mul(x);  // A x - b
    for (std::size_t i = 0; i < m; ++i) rb[i] -= sf.b[i];
    std::vector<double> rc = kernel.mul_t(y);  // A^T y + s - c
    for (std::size_t i = 0; i < n; ++i) rc[i] += s[i] - sf.c[i];
    const double mu = dot(x, s) / static_cast<double>(n);

    const double rel_gap =
        std::fabs(dot(sf.c, x) - dot(sf.b, y)) /
        (1.0 + std::fabs(dot(sf.c, x)));
    // Last-iteration convergence state; with a trace attached, Perfetto
    // shows how the residuals decayed inside each solve.
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("lp.ipm.last_rel_gap").set(rel_gap);
    reg.gauge("lp.ipm.last_primal_residual").set(norm_inf(rb));
    reg.gauge("lp.ipm.last_dual_residual").set(norm_inf(rc));
    if (norm_inf(rb) <= kTolerance * b_scale &&
        norm_inf(rc) <= kTolerance * c_scale && rel_gap <= kTolerance) {
      out.status = SolveStatus::kOptimal;
      out.iterations = iter;
      out.x = sf.recover(x);
      out.objective = problem.objective_value(out.x);
      // Standard-form rows list the original constraints first; the tail
      // rows are upper-bound rows whose duals are internal.
      out.duals.assign(y.begin(),
                       y.begin() + static_cast<long>(
                                       problem.num_constraints()));
      return out;
    }

    // Normal-equation matrix M = A diag(x/s) A^T.
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = x[i] / s[i];
    if (poison_next_factor) {
      d[0] = std::nan("");
      poison_next_factor = false;
    }
    // A NaN scaling entry means the factorization input is already corrupt
    // (chaos nan-poison injects exactly here). NaN defeats every comparison
    // downstream, so the loop would spin silently; fail loudly instead.
    // Note x, s > 0 is maintained by the ratio test, so a natural d is
    // never NaN — at worst +inf, which the factorization tolerates.
    if (has_nan(d)) {
      throw SolverError("interior-point: NaN in factorization scaling "
                        "(numeric breakdown)");
    }
    kernel.factor(d);

    // One Newton solve for a given complementarity target `rxs`
    // (rxs_i = x_i s_i - target_i). Returns (dx, dy, ds).
    auto newton = [&](const std::vector<double>& rxs) {
      // dy from: M dy = -rb + A diag(1/s) (rxs - x .* rc)
      std::vector<double> tmp(n);
      for (std::size_t i = 0; i < n; ++i) {
        tmp[i] = (rxs[i] - x[i] * rc[i]) / s[i];
      }
      std::vector<double> rhs = kernel.mul(tmp);
      for (std::size_t i = 0; i < m; ++i) rhs[i] -= rb[i];
      std::vector<double> dy = kernel.solve(rhs);
      std::vector<double> ds = kernel.mul_t(dy);
      for (std::size_t i = 0; i < n; ++i) ds[i] = -rc[i] - ds[i];
      std::vector<double> dx(n);
      for (std::size_t i = 0; i < n; ++i) {
        dx[i] = -(rxs[i] + x[i] * ds[i]) / s[i];
      }
      return std::tuple(std::move(dx), std::move(dy), std::move(ds));
    };

    // Predictor (affine) step: target 0, rxs = x .* s.
    std::vector<double> rxs(n);
    for (std::size_t i = 0; i < n; ++i) rxs[i] = x[i] * s[i];
    auto [dx_aff, dy_aff, ds_aff] = newton(rxs);

    const double ap_aff = max_step(x, dx_aff, 1.0);
    const double ad_aff = max_step(s, ds_aff, 1.0);
    double mu_aff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mu_aff += (x[i] + ap_aff * dx_aff[i]) * (s[i] + ad_aff * ds_aff[i]);
    }
    mu_aff /= static_cast<double>(n);
    const double sigma = std::pow(mu_aff / std::max(mu, 1e-300), 3.0);

    // Corrector step: rxs = x.*s + dx_aff.*ds_aff - sigma*mu.
    for (std::size_t i = 0; i < n; ++i) {
      rxs[i] = x[i] * s[i] + dx_aff[i] * ds_aff[i] - sigma * mu;
    }
    auto [dx, dy, ds] = newton(rxs);

    const double ap = max_step(x, dx, kStepDamping);
    const double ad = max_step(s, ds, kStepDamping);
    for (std::size_t i = 0; i < n; ++i) x[i] += ap * dx[i];
    for (std::size_t i = 0; i < m; ++i) y[i] += ad * dy[i];
    for (std::size_t i = 0; i < n; ++i) s[i] += ad * ds[i];

    // Heuristic divergence check: iterates blowing up past 1e14 mean the
    // problem is (near-)infeasible. A NaN iterate is the same breakdown one
    // step later — divergent arithmetic produces inf - inf — but NaN
    // defeats the norm comparison, so it is tested explicitly; without
    // this, the loop would spin NaN to the iteration limit. Poisoned
    // factorizations cannot reach here: the NaN scaling guard above threw
    // before the corrupt factor was ever used.
    if (norm_inf(x) > 1e14 || norm_inf(s) > 1e14 ||
        has_nan(x) || has_nan(y) || has_nan(s)) {
      out.status = SolveStatus::kInfeasible;
      out.iterations = iter;
      return out;
    }
  }

  out.status = SolveStatus::kIterationLimit;
  out.iterations = options.max_iterations;
  return out;
}

}  // namespace

Solution InteriorPointSolver::solve(const Problem& problem) const {
  const obs::ScopedTimer span("lp.ipm.solve", "lp");
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const std::uint64_t chaos_before =
      flight.enabled() ? chaos::local_injections() : 0;
  const auto cut_record = [&](const Solution* solution,
                              const std::string& status,
                              const std::string& detail,
                              const std::string& audit_verdict) {
    obs::SolveRecord r;
    r.layer = "lp";
    r.engine = "ipm";
    r.status = status;
    r.detail = detail;
    r.seconds = span.elapsed_s();
    r.iterations = solution != nullptr ? solution->iterations : 0;
    const CancellationToken token = effective_solve_token(options_.cancel);
    r.deadline_residual_ms =
        obs::FlightRecorder::residual_ms(token.deadline());
    r.deadline_hit =
        solution != nullptr && solution->status == SolveStatus::kDeadline;
    r.chaos_hits = chaos::local_injections() - chaos_before;
    r.audit = audit_verdict;
    flight.record(std::move(r));
  };
  Solution out;
  try {
    out = solve_impl(problem);
  } catch (const SolverError& e) {
    if (flight.enabled()) cut_record(nullptr, "error", e.what(), "");
    throw;
  }
  obs::Registry& reg = obs::Registry::global();
  reg.counter("lp.ipm.solves").add();
  reg.counter("lp.ipm.iterations").add(out.iterations);
  reg.histogram("lp.ipm.iterations_per_solve")
      .observe(static_cast<double>(out.iterations));
  if (!out.optimal()) reg.counter("lp.ipm.non_optimal").add();
  if (out.status == SolveStatus::kDeadline) {
    reg.counter("solve.deadline.ipm").add();
    if (options_.cancel.cancel_requested()) reg.counter("solve.cancelled").add();
  }
  // Certificate audit (no-op at audit level off). The IPM converges to the
  // relative-gap tolerance, not to a vertex, so vertex_expected stays off
  // and the gap tolerance is loosened to match the termination criterion.
  audit::LpCertificateOptions cert;
  cert.feasibility_tolerance = 1e-5;
  cert.gap_tolerance = 1e-5;
  try {
    audit::check_lp(problem, out, "ipm", cert);
  } catch (const audit::AuditError& e) {
    if (flight.enabled()) {
      cut_record(&out, "audit-error", to_string(out.status), e.what());
    }
    throw;
  }
  if (flight.enabled()) cut_record(&out, to_string(out.status), "", "ok");
  return out;
}

Solution InteriorPointSolver::solve_impl(const Problem& problem) const {
  if (problem.num_variables() == 0) {
    Solution out;
    out.status = SolveStatus::kOptimal;
    return out;
  }

  const StandardForm sf = to_standard_form(problem);
  const CancellationToken token = effective_solve_token(options_.cancel);
  obs::Registry::global().counter("lp.sparse.ipm_solves").add();
  SparseNormalKernel kernel(sf.a);
  return ipm_loop(problem, sf, kernel, options_, token);
}

}  // namespace mecsched::lp
