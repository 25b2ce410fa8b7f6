#include "lp/presolve.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::lp {
namespace {

constexpr double kFixTolerance = 1e-12;
constexpr double kFeasTolerance = 1e-9;

// Reduction tallies for the Prometheus dump; called at every exit of
// presolve() so the span timing and the counters always agree.
void record_presolve(const Presolved& out) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("lp.presolve.runs").add();
  reg.counter("lp.presolve.fixed_variables").add(out.fixed_variables());
  reg.counter("lp.presolve.dropped_constraints")
      .add(out.dropped_constraints());
  reg.counter("lp.presolve.tightened_bounds").add(out.tightened_bounds());
  if (out.infeasible()) reg.counter("lp.presolve.proved_infeasible").add();
}

}  // namespace

Presolved presolve(const Problem& p) {
  const obs::ScopedTimer span("lp.presolve", "lp");
  Presolved out;
  out.n_original_ = p.num_variables();
  out.var_map_.assign(p.num_variables(), std::nullopt);
  out.fixed_value_.assign(p.num_variables(), 0.0);

  // Pass 1: bound sanity + collect singleton-row bound tightenings.
  std::vector<double> lo(p.num_variables());
  std::vector<double> hi(p.num_variables());
  for (std::size_t v = 0; v < p.num_variables(); ++v) {
    lo[v] = p.lower(v);
    hi[v] = p.upper(v);
  }
  std::vector<bool> row_dropped(p.num_constraints(), false);
  for (std::size_t r = 0; r < p.num_constraints(); ++r) {
    const Constraint& c = p.constraint(r);
    if (c.terms.empty()) {
      // 0 <= / >= / == rhs — either vacuous or infeasible.
      const bool ok = (c.relation == Relation::kLessEqual && 0.0 <= c.rhs + kFeasTolerance) ||
                      (c.relation == Relation::kGreaterEqual && 0.0 >= c.rhs - kFeasTolerance) ||
                      (c.relation == Relation::kEqual && std::fabs(c.rhs) <= kFeasTolerance);
      if (!ok) {
        out.infeasible_ = true;
        record_presolve(out);
        return out;
      }
      row_dropped[r] = true;
      ++out.dropped_constraints_;
      continue;
    }
    if (c.terms.size() == 1 && c.relation != Relation::kEqual) {
      // a*x <= b (or >=): fold into the variable bound.
      const std::size_t v = c.terms[0].var;
      const double a = c.terms[0].coeff;
      if (a == 0.0) continue;  // degenerate; keep the row untouched
      const double bound = c.rhs / a;
      const bool upper = (c.relation == Relation::kLessEqual) == (a > 0.0);
      if (upper) {
        if (bound < hi[v]) {
          hi[v] = bound;
          ++out.tightened_;
        }
      } else {
        if (bound > lo[v]) {
          lo[v] = bound;
          ++out.tightened_;
        }
      }
      row_dropped[r] = true;
      ++out.dropped_constraints_;
    }
  }

  // Pass 2: infeasible or fixed variables.
  for (std::size_t v = 0; v < p.num_variables(); ++v) {
    if (lo[v] > hi[v] + kFeasTolerance) {
      out.infeasible_ = true;
      record_presolve(out);
      return out;
    }
    if (hi[v] - lo[v] <= kFixTolerance) {
      out.fixed_value_[v] = lo[v];
      out.objective_offset_ += p.cost(v) * lo[v];
      ++out.fixed_count_;
    }
  }

  // Pass 3: build the reduced problem.
  for (std::size_t v = 0; v < p.num_variables(); ++v) {
    if (hi[v] - lo[v] <= kFixTolerance) continue;  // fixed: substituted out
    out.var_map_[v] = out.reduced_.add_variable(p.cost(v), lo[v], hi[v]);
  }
  for (std::size_t r = 0; r < p.num_constraints(); ++r) {
    if (row_dropped[r]) continue;
    const Constraint& c = p.constraint(r);
    std::vector<Term> terms;
    double rhs = c.rhs;
    for (const Term& t : c.terms) {
      if (out.var_map_[t.var].has_value()) {
        terms.push_back({*out.var_map_[t.var], t.coeff});
      } else {
        rhs -= t.coeff * out.fixed_value_[t.var];
      }
    }
    if (terms.empty()) {
      const bool ok =
          (c.relation == Relation::kLessEqual && 0.0 <= rhs + kFeasTolerance) ||
          (c.relation == Relation::kGreaterEqual && 0.0 >= rhs - kFeasTolerance) ||
          (c.relation == Relation::kEqual && std::fabs(rhs) <= kFeasTolerance);
      if (!ok) {
        out.infeasible_ = true;
        record_presolve(out);
        return out;
      }
      ++out.dropped_constraints_;
      continue;
    }
    out.reduced_.add_constraint(terms, c.relation, rhs);
  }
  record_presolve(out);
  return out;
}

Solution Presolved::restore(const Solution& reduced_solution) const {
  Solution out;
  out.status = reduced_solution.status;
  out.iterations = reduced_solution.iterations;
  if (out.status != SolveStatus::kOptimal) return out;

  MECSCHED_REQUIRE(reduced_solution.x.size() == reduced_.num_variables(),
                   "reduced solution has wrong size");
  out.x.resize(n_original_);
  out.objective = objective_offset_;
  for (std::size_t v = 0; v < n_original_; ++v) {
    if (var_map_[v].has_value()) {
      out.x[v] = reduced_solution.x[*var_map_[v]];
      out.objective += reduced_.cost(*var_map_[v]) * out.x[v];
    } else {
      out.x[v] = fixed_value_[v];
    }
  }
  return out;
}

}  // namespace mecsched::lp
