#include "audit/lp_certificate.h"

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "audit/audit.h"

namespace mecsched::audit {

namespace {

constexpr std::string_view kComponent = "lp";

std::string row_label(std::size_t r) { return "row " + std::to_string(r); }

}  // namespace

void check_lp(const lp::Problem& problem, const lp::Solution& solution,
              std::string_view engine, LpCertificateOptions options) {
  if (!enabled(Level::kCheap)) return;
  if (!solution.optimal()) return;  // non-optimal statuses carry no claim
  if (problem.num_variables() == 0) return;
  count_check(kComponent);

  const std::string tag = " [" + std::string(engine) + "]";
  if (solution.x.size() != problem.num_variables()) {
    fail(kComponent, "shape:x", 0.0,
         "solution has " + std::to_string(solution.x.size()) +
             " primal values for " + std::to_string(problem.num_variables()) +
             " variables" + tag);
  }

  double rhs_scale = 1.0;
  for (std::size_t r = 0; r < problem.num_constraints(); ++r) {
    rhs_scale = std::max(rhs_scale, std::fabs(problem.constraint(r).rhs));
  }
  const double feas_tol = options.feasibility_tolerance * rhs_scale;

  // --- primal feasibility -------------------------------------------------
  const double violation = problem.max_violation(solution.x);
  if (violation > feas_tol) {
    fail(kComponent, "primal:feasibility", violation,
         "claimed-optimal point violates a constraint/bound by " +
             std::to_string(violation) + " (tolerance " +
             std::to_string(feas_tol) + ")" + tag);
  }

  // --- objective integrity ------------------------------------------------
  const double cx = problem.objective_value(solution.x);
  const double obj_scale = 1.0 + std::fabs(cx);
  if (std::fabs(solution.objective - cx) > options.gap_tolerance * obj_scale) {
    fail(kComponent, "primal:objective", solution.objective - cx,
         "reported objective " + std::to_string(solution.objective) +
             " != c'x = " + std::to_string(cx) + tag);
  }

  if (!enabled(Level::kFull)) return;

  // --- dual certificate ---------------------------------------------------
  if (solution.duals.size() != problem.num_constraints()) {
    fail(kComponent, "shape:duals", 0.0,
         "solution has " + std::to_string(solution.duals.size()) +
             " duals for " + std::to_string(problem.num_constraints()) +
             " rows" + tag);
  }

  double dual_scale = 1.0;
  for (const double y : solution.duals) {
    dual_scale = std::max(dual_scale, std::fabs(y));
  }
  const double sign_tol = options.gap_tolerance * dual_scale;

  // Sign feasibility (minimization convention, see lp/solution.h).
  double dual_obj = 0.0;
  for (std::size_t r = 0; r < problem.num_constraints(); ++r) {
    const lp::Constraint& c = problem.constraint(r);
    const double y = solution.duals[r];
    if (c.relation == lp::Relation::kLessEqual && y > sign_tol) {
      fail(kComponent, "dual:sign:row=" + std::to_string(r), y,
           "dual of \"<=\" " + row_label(r) + " is " +
               std::to_string(y) + " > 0" + tag);
    }
    if (c.relation == lp::Relation::kGreaterEqual && y < -sign_tol) {
      fail(kComponent, "dual:sign:row=" + std::to_string(r), y,
           "dual of \">=\" " + row_label(r) + " is " +
               std::to_string(y) + " < 0" + tag);
    }
    dual_obj += c.rhs * y;
  }

  // Reduced costs z = c - A'y, priced at the bound each sign selects. An
  // in-tolerance-zero z contributes nothing; a decisively signed z whose
  // selected bound is infinite certifies dual infeasibility.
  std::vector<double> z(problem.costs());
  for (std::size_t r = 0; r < problem.num_constraints(); ++r) {
    const double y = solution.duals[r];
    if (y == 0.0) continue;
    for (const lp::Term& t : problem.constraint(r).terms) {
      z[t.var] -= y * t.coeff;
    }
  }
  double cost_scale = 1.0;
  for (const double c : problem.costs()) {
    cost_scale = std::max(cost_scale, std::fabs(c));
  }
  const double z_tol = options.gap_tolerance * std::max(cost_scale, dual_scale);
  for (std::size_t v = 0; v < problem.num_variables(); ++v) {
    if (z[v] > z_tol) {
      const double lo = problem.lower(v);
      if (!std::isfinite(lo)) {
        fail(kComponent, "dual:unbounded:var=" + std::to_string(v), z[v],
             "positive reduced cost on a variable with no lower bound" + tag);
      }
      dual_obj += z[v] * lo;
    } else if (z[v] < -z_tol) {
      const double hi = problem.upper(v);
      if (!std::isfinite(hi)) {
        fail(kComponent, "dual:unbounded:var=" + std::to_string(v), z[v],
             "negative reduced cost on a variable with no upper bound" + tag);
      }
      dual_obj += z[v] * hi;
    }
  }

  // Weak-duality gap. For a primal-feasible x and sign-feasible y the gap
  // aggregates every complementary-slackness residual, so it is the single
  // number that certifies optimality.
  const double gap = std::fabs(cx - dual_obj);
  const double gap_scale = 1.0 + std::fabs(cx) + std::fabs(dual_obj);
  if (gap > options.gap_tolerance * gap_scale) {
    fail(kComponent, "dual:gap", gap,
         "duality gap " + std::to_string(gap) + " between primal " +
             std::to_string(cx) + " and dual " + std::to_string(dual_obj) +
             tag);
  }

  // --- vertex cardinality (simplex only) ----------------------------------
  if (options.vertex_expected) {
    std::size_t interior = 0;
    for (std::size_t v = 0; v < problem.num_variables(); ++v) {
      const double x = solution.x[v];
      const double vtol =
          options.feasibility_tolerance * (1.0 + std::fabs(x));
      const bool above_lo =
          !std::isfinite(problem.lower(v)) || x - problem.lower(v) > vtol;
      const bool below_hi =
          !std::isfinite(problem.upper(v)) || problem.upper(v) - x > vtol;
      if (above_lo && below_hi) ++interior;
    }
    if (interior > problem.num_constraints()) {
      fail(kComponent, "basis:vertex",
           static_cast<double>(interior - problem.num_constraints()),
           std::to_string(interior) +
               " variables strictly between bounds exceeds the basis size " +
               std::to_string(problem.num_constraints()) + tag);
    }
  }
}

}  // namespace mecsched::audit
