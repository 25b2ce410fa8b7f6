#include "lp/problem.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::lp {
namespace {

void require_bounds(double lo, double hi) {
  MECSCHED_REQUIRE(lo <= hi, "variable bounds out of order");
  MECSCHED_REQUIRE(std::isfinite(lo), "lower bound must be finite");
}

}  // namespace

void Problem::reserve(std::size_t vars, std::size_t rows, std::size_t nnz) {
  costs_.reserve(vars);
  lower_.reserve(vars);
  upper_.reserve(vars);
  seen_.reserve(vars);
  row_begin_.reserve(rows + 1);
  relation_.reserve(rows);
  rhs_.reserve(rows);
  terms_.reserve(nnz);
}

std::size_t Problem::add_variable(double cost, double lo, double hi) {
  require_bounds(lo, hi);
  MECSCHED_REQUIRE(std::isfinite(cost), "variable cost must be finite");
  costs_.push_back(cost);
  lower_.push_back(lo);
  upper_.push_back(hi);
  return costs_.size() - 1;
}

std::size_t Problem::add_constraint(std::span<const Term> terms, Relation rel,
                                    double rhs) {
  MECSCHED_REQUIRE(std::isfinite(rhs), "constraint rhs must be finite");
  seen_.resize(costs_.size(), 0);
  ++check_;
  for (const Term& t : terms) {
    MECSCHED_REQUIRE(t.var < costs_.size(), "constraint references unknown variable");
    MECSCHED_REQUIRE(std::isfinite(t.coeff), "constraint coefficient must be finite");
    MECSCHED_REQUIRE(seen_[t.var] != check_,
                     "variable appears twice in one constraint");
    seen_[t.var] = check_;
  }
  terms_.insert(terms_.end(), terms.begin(), terms.end());
  row_begin_.push_back(terms_.size());
  relation_.push_back(rel);
  rhs_.push_back(rhs);
  return rhs_.size() - 1;
}

void Problem::set_bounds(std::size_t v, double lo, double hi) {
  MECSCHED_REQUIRE(v < costs_.size(), "bounds for unknown variable");
  require_bounds(lo, hi);
  lower_[v] = lo;
  upper_[v] = hi;
}

double Problem::objective_value(const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == costs_.size(), "solution size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += costs_[i] * x[i];
  return acc;
}

double Problem::max_violation(const std::vector<double>& x) const {
  MECSCHED_REQUIRE(x.size() == costs_.size(), "solution size mismatch");
  double worst = 0.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    worst = std::max(worst, lower_[v] - x[v]);
    if (std::isfinite(upper_[v])) worst = std::max(worst, x[v] - upper_[v]);
  }
  for (std::size_t r = 0; r < num_constraints(); ++r) {
    double lhs = 0.0;
    for (const Term& t : constraint(r).terms) lhs += t.coeff * x[t.var];
    switch (relation_[r]) {
      case Relation::kLessEqual:
        worst = std::max(worst, lhs - rhs_[r]);
        break;
      case Relation::kGreaterEqual:
        worst = std::max(worst, rhs_[r] - lhs);
        break;
      case Relation::kEqual:
        worst = std::max(worst, std::fabs(lhs - rhs_[r]));
        break;
    }
  }
  return worst;
}

}  // namespace mecsched::lp
