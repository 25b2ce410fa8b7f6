#include "lp/problem.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "lp/standard_form.h"

namespace mecsched::lp {
namespace {

TEST(ProblemTest, BuildsVariablesAndConstraints) {
  Problem p;
  const auto x = p.add_variable(2.0, 0.0, 1.0);
  const auto y = p.add_variable(-1.0, 0.0, kInfinity);
  EXPECT_EQ(x, 0u);
  EXPECT_EQ(y, 1u);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLessEqual, 4.0);
  EXPECT_EQ(p.num_variables(), 2u);
  EXPECT_EQ(p.num_constraints(), 1u);
  EXPECT_DOUBLE_EQ(p.cost(x), 2.0);
  EXPECT_DOUBLE_EQ(p.upper(y), kInfinity);
}

TEST(ProblemTest, DuplicateCheckIsPerRow) {
  Problem p;
  const auto x = p.add_variable(0.0, 0.0, 1.0);
  const auto y = p.add_variable(0.0, 0.0, 1.0);
  EXPECT_THROW(p.add_constraint({{x, 1.0}, {y, 1.0}, {x, 3.0}},
                                Relation::kLessEqual, 1.0),
               ModelError);
  EXPECT_EQ(p.num_constraints(), 0u);
  EXPECT_TRUE(p.terms().empty());  // the rejected row left nothing behind
  // The same variables across rows are fine.
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 1.0);
  p.add_constraint({{y, 2.0}, {x, 2.0}}, Relation::kGreaterEqual, 0.5);
  EXPECT_EQ(p.num_constraints(), 2u);
  EXPECT_EQ(p.terms().size(), 4u);
}

TEST(ProblemTest, RejectedRowDoesNotPoisonTheNextOne) {
  Problem p;
  const auto x = p.add_variable(0.0, 0.0, 1.0);
  const auto y = p.add_variable(0.0, 0.0, 1.0);
  // Marks x and y, then fails on the repeated y; the next row (same row
  // index, same variables) must not see those marks as duplicates.
  EXPECT_THROW(
      p.add_constraint({{x, 1.0}, {y, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0),
      ModelError);
  EXPECT_NO_THROW(p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0));
  EXPECT_THROW(p.add_constraint({{x, 1.0}, {7, 1.0}}, Relation::kEqual, 1.0),
               ModelError);  // unknown variable after x was marked
  EXPECT_NO_THROW(p.add_constraint({{x, 2.0}}, Relation::kLessEqual, 1.0));
  EXPECT_EQ(p.num_constraints(), 2u);
}

TEST(ProblemTest, ConstraintViewsReadCorrectlyAfterGrowth) {
  Problem p;
  const std::size_t n = 8;
  for (std::size_t v = 0; v < n; ++v) p.add_variable(1.0, 0.0, 1.0);
  // Row r holds terms (v, r + v) for v <= r % n; many rows force the
  // term store to reallocate several times.
  const std::size_t rows = 500;
  std::vector<Term> terms;
  for (std::size_t r = 0; r < rows; ++r) {
    terms.clear();
    for (std::size_t v = 0; v <= r % n; ++v) {
      terms.push_back({v, static_cast<double>(r + v)});
    }
    p.add_constraint(terms, Relation::kLessEqual, static_cast<double>(r));
  }
  ASSERT_EQ(p.num_constraints(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const Constraint c = p.constraint(r);
    ASSERT_EQ(c.terms.size(), r % n + 1);
    EXPECT_EQ(c.relation, Relation::kLessEqual);
    EXPECT_DOUBLE_EQ(c.rhs, static_cast<double>(r));
    for (std::size_t v = 0; v < c.terms.size(); ++v) {
      EXPECT_EQ(c.terms[v].var, v);
      EXPECT_DOUBLE_EQ(c.terms[v].coeff, static_cast<double>(r + v));
    }
  }
  EXPECT_EQ(p.row_begin().size(), rows + 1);
  EXPECT_EQ(p.row_begin().back(), p.terms().size());
}

TEST(ProblemTest, SetBoundsIsValidated) {
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, 1.0);
  p.set_bounds(x, 0.25, 0.5);
  EXPECT_DOUBLE_EQ(p.lower(x), 0.25);
  EXPECT_DOUBLE_EQ(p.upper(x), 0.5);
  EXPECT_THROW(p.set_bounds(x, 0.75, 0.5), ModelError);  // lo > hi
  EXPECT_THROW(p.set_bounds(x, -kInfinity, 0.5), ModelError);
  EXPECT_THROW(p.set_bounds(x, std::nan(""), 0.5), ModelError);
  EXPECT_THROW(p.set_bounds(5, 0.0, 1.0), ModelError);  // unknown variable
  // Rejected calls leave the bounds as they were.
  EXPECT_DOUBLE_EQ(p.lower(x), 0.25);
  EXPECT_DOUBLE_EQ(p.upper(x), 0.5);
}

TEST(ProblemTest, RejectsBadBoundsAndIndices) {
  Problem p;
  EXPECT_THROW(p.add_variable(0.0, 1.0, 0.0), ModelError);   // lo > hi
  EXPECT_THROW(p.add_variable(0.0, kInfinity, kInfinity), ModelError);
  p.add_variable(0.0, 0.0, 1.0);
  EXPECT_THROW(p.add_constraint({{5, 1.0}}, Relation::kEqual, 0.0), ModelError);
  EXPECT_THROW(p.add_constraint({{0, 1.0}, {0, 2.0}}, Relation::kEqual, 0.0),
               ModelError);  // duplicate variable
}

TEST(ProblemTest, ObjectiveValue) {
  Problem p;
  p.add_variable(3.0, 0.0, 10.0);
  p.add_variable(-2.0, 0.0, 10.0);
  EXPECT_DOUBLE_EQ(p.objective_value({1.0, 2.0}), -1.0);
}

TEST(ProblemTest, MaxViolationFlagsEachConstraintKind) {
  Problem p;
  const auto x = p.add_variable(0.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, 0.5);
  EXPECT_DOUBLE_EQ(p.max_violation({0.3}), 0.0);
  EXPECT_NEAR(p.max_violation({0.8}), 0.3, 1e-12);

  Problem q;
  const auto z = q.add_variable(0.0, 0.0, 1.0);
  q.add_constraint({{z, 1.0}}, Relation::kGreaterEqual, 0.5);
  EXPECT_NEAR(q.max_violation({0.2}), 0.3, 1e-12);

  Problem r;
  const auto w = r.add_variable(0.0, 0.0, 1.0);
  r.add_constraint({{w, 1.0}}, Relation::kEqual, 0.5);
  EXPECT_NEAR(r.max_violation({0.8}), 0.3, 1e-12);
  // bound violation
  EXPECT_NEAR(r.max_violation({1.4}), 0.9, 1e-12);
}

TEST(StandardFormTest, ShiftsLowerBounds) {
  Problem p;
  const auto x = p.add_variable(2.0, 3.0, 5.0);  // x in [3,5]
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  const StandardForm sf = to_standard_form(p);
  // x' = x - 3 in [0, 2]; row becomes x' + slack = 1; ub row x' + s = 2.
  EXPECT_EQ(sf.n_original, 1u);
  EXPECT_DOUBLE_EQ(sf.objective_offset, 6.0);
  EXPECT_DOUBLE_EQ(sf.b[0], 1.0);
  // one original row + one upper-bound row
  EXPECT_EQ(sf.a.rows(), 2u);
  const auto rec = sf.recover({0.5, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(rec[0], 3.5);
}

TEST(StandardFormTest, GreaterEqualGetsSurplus) {
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);
  const StandardForm sf = to_standard_form(p);
  EXPECT_EQ(sf.a.rows(), 1u);   // no upper-bound rows
  EXPECT_EQ(sf.a.cols(), 2u);   // x + surplus
  EXPECT_DOUBLE_EQ(sf.a(0, 1), -1.0);
}

TEST(StandardFormTest, StandardSolutionSatisfiesOriginal) {
  Problem p;
  const auto x = p.add_variable(1.0, 1.0, 4.0);
  const auto y = p.add_variable(1.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 5.0);
  const StandardForm sf = to_standard_form(p);
  // pick x' = 2 (x = 3), y = 2 -> equality row holds: check via recover +
  // max_violation
  std::vector<double> std_x(sf.a.cols(), 0.0);
  std_x[0] = 2.0;  // x' = x - 1
  std_x[1] = 2.0;  // y
  // remaining columns are slacks; compute the ub slack for x: 3 - x' = 1
  // (layout: [x, y, ub-slack(x)])
  std_x[2] = 1.0;
  const auto rec = sf.recover(std_x);
  EXPECT_DOUBLE_EQ(p.max_violation(rec), 0.0);
  // and A std_x == b
  const auto ax = sf.a.multiply(std_x);
  for (std::size_t r = 0; r < sf.b.size(); ++r) {
    EXPECT_NEAR(ax[r], sf.b[r], 1e-12);
  }
}

}  // namespace
}  // namespace mecsched::lp
