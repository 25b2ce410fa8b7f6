// General-form linear program builder.
//
//   minimize    c^T x
//   subject to  lhs_r : sum_j a_rj x_j  (<= | >= | ==)  rhs_r
//               lo_j <= x_j <= hi_j
//
// Both solvers consume this representation: the simplex solver augments it
// with slacks internally; the interior-point solver converts it to standard
// form. The builders validate eagerly so a malformed model fails at
// construction, not inside a solver.
//
// Storage is one flat row store (CSR without a column index): per-variable
// arrays (cost, lower, upper), per-row arrays (relation, rhs) and a single
// `terms()` array holding every row's terms back to back, row r spanning
// terms()[row_begin()[r] .. row_begin()[r + 1]). A model therefore costs a
// handful of heap blocks however many rows it has, and `reserve` makes a
// build of known shape allocate each of them once. Variables and rows
// carry no names.
//
// `constraint(r)` returns a view into that store. Adding a constraint may
// reallocate `terms()`, which invalidates every previously returned view's
// `terms` span (and any span from `terms()`/`row_begin()`): read a view
// before the next `add_constraint` on the same problem, not after.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

namespace mecsched::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Relation { kLessEqual, kGreaterEqual, kEqual };

struct Term {
  std::size_t var;
  double coeff;
};

// Read-only view of one row (see the invalidation rule above).
struct Constraint {
  std::span<const Term> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

class Problem {
 public:
  // Pre-sizes the store for `vars` variables, `rows` constraints and `nnz`
  // terms in total, so a build within those counts does not reallocate.
  void reserve(std::size_t vars, std::size_t rows, std::size_t nnz);

  // Adds a variable with objective coefficient `cost` and bounds
  // [lo, hi] (hi may be kInfinity). Returns its index.
  std::size_t add_variable(double cost, double lo, double hi);

  // Adds a constraint; all term indices must refer to existing variables
  // and appear at most once. A rejected row leaves the problem unchanged.
  // `terms` must not point into this problem's own store.
  std::size_t add_constraint(std::span<const Term> terms, Relation rel,
                             double rhs);
  std::size_t add_constraint(std::initializer_list<Term> terms, Relation rel,
                             double rhs) {
    return add_constraint(std::span<const Term>(terms.begin(), terms.size()),
                          rel, rhs);
  }

  // Replaces variable v's bounds, validated as in add_variable.
  void set_bounds(std::size_t v, double lo, double hi);

  std::size_t num_variables() const { return costs_.size(); }
  std::size_t num_constraints() const { return rhs_.size(); }

  double cost(std::size_t v) const { return costs_[v]; }
  double lower(std::size_t v) const { return lower_[v]; }
  double upper(std::size_t v) const { return upper_[v]; }
  Constraint constraint(std::size_t r) const {
    return {terms().subspan(row_begin_[r], row_begin_[r + 1] - row_begin_[r]),
            relation_[r], rhs_[r]};
  }

  const std::vector<double>& costs() const { return costs_; }
  // The row store: num_constraints() + 1 offsets into terms().
  std::span<const std::size_t> row_begin() const { return row_begin_; }
  std::span<const Term> terms() const { return terms_; }

  // Objective value of `x` (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  // Largest constraint/bound violation of `x`; 0 when feasible.
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> costs_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::size_t> row_begin_{0};
  std::vector<Term> terms_;
  std::vector<Relation> relation_;
  std::vector<double> rhs_;
  // Duplicate-term check: seen_[v] == check_ iff v already appeared in the
  // row being validated. Every add_constraint call takes a fresh check_, so
  // marks left by a rejected row never match the next one.
  std::vector<std::size_t> seen_;
  std::size_t check_ = 0;
};

}  // namespace mecsched::lp
