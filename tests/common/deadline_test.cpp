#include "common/deadline.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"

namespace mecsched {
namespace {

TEST(Deadline, DefaultIsUnlimited) {
  const Deadline d;
  EXPECT_TRUE(d.is_unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_s()));
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
}

TEST(Deadline, ZeroBudgetIsLegalAndAlreadyExpired) {
  const Deadline d = Deadline::after_s(0.0);
  EXPECT_FALSE(d.is_unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_DOUBLE_EQ(d.remaining_s(), 0.0);
}

TEST(Deadline, GenerousBudgetIsNotExpired) {
  const Deadline d = Deadline::after_s(3600.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_s(), 3000.0);
  EXPECT_GT(d.remaining_ms(), 3000.0 * 1e3);
}

TEST(Deadline, RejectsNegativeAndNonFiniteBudgets) {
  EXPECT_THROW(Deadline::after_s(-1.0), ModelError);
  EXPECT_THROW(Deadline::after_s(std::nan("")), ModelError);
  EXPECT_THROW(Deadline::after_s(std::numeric_limits<double>::infinity()),
               ModelError);
  EXPECT_THROW(Deadline::after_ms(-5.0), ModelError);
}

TEST(Deadline, EarlierPrefersTheBoundedAndSoonerOne) {
  const Deadline never;
  const Deadline soon = Deadline::after_s(1.0);
  const Deadline later = Deadline::after_s(100.0);
  EXPECT_TRUE(Deadline::earlier(never, never).is_unlimited());
  EXPECT_NEAR(Deadline::earlier(never, soon).remaining_s(), 1.0, 0.5);
  EXPECT_NEAR(Deadline::earlier(soon, never).remaining_s(), 1.0, 0.5);
  EXPECT_NEAR(Deadline::earlier(soon, later).remaining_s(), 1.0, 0.5);
}

TEST(CancellationToken, DefaultNeverExpires) {
  const CancellationToken t;
  EXPECT_TRUE(t.unlimited());
  EXPECT_FALSE(t.expired());
  EXPECT_FALSE(t.cancel_requested());
}

TEST(CancellationToken, ExpiresWithItsDeadline) {
  const CancellationToken t{Deadline::after_s(0.0)};
  EXPECT_FALSE(t.unlimited());
  EXPECT_TRUE(t.expired());
  EXPECT_FALSE(t.cancel_requested());
}

TEST(CancellationSource, FlagIsSharedAcrossCopies) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = a;  // copy observes the same flag
  EXPECT_FALSE(a.expired());
  source.request_cancel();
  EXPECT_TRUE(a.cancel_requested());
  EXPECT_TRUE(b.cancel_requested());
  EXPECT_TRUE(a.expired());
  EXPECT_FALSE(a.unlimited());
}

TEST(CancellationToken, WithDeadlineTightensButKeepsTheFlag) {
  CancellationSource source;
  const CancellationToken base = source.token(Deadline::after_s(100.0));
  const CancellationToken tight = base.with_deadline(Deadline::after_s(0.0));
  EXPECT_TRUE(tight.expired());  // sooner deadline wins
  const CancellationToken loose = base.with_deadline(Deadline::after_s(1e6));
  EXPECT_LE(loose.deadline().remaining_s(), 101.0);  // cannot loosen
  source.request_cancel();
  EXPECT_TRUE(loose.cancel_requested());  // flag survived the re-deadline
}

class DefaultBudgetTest : public ::testing::Test {
 protected:
  void TearDown() override { set_default_solve_budget_ms(0.0); }
};

TEST_F(DefaultBudgetTest, SetAndClear) {
  EXPECT_DOUBLE_EQ(default_solve_budget_ms(), 0.0);
  set_default_solve_budget_ms(250.0);
  EXPECT_DOUBLE_EQ(default_solve_budget_ms(), 250.0);
  set_default_solve_budget_ms(0.0);
  EXPECT_DOUBLE_EQ(default_solve_budget_ms(), 0.0);
}

TEST_F(DefaultBudgetTest, RejectsNegativeAndNonFinite) {
  EXPECT_THROW(set_default_solve_budget_ms(-1.0), ModelError);
  EXPECT_THROW(set_default_solve_budget_ms(std::nan("")), ModelError);
}

TEST_F(DefaultBudgetTest, EffectiveTokenAppliesTheDefaultOnlyWhenUnset) {
  // No default installed: the token passes through untouched.
  EXPECT_TRUE(effective_solve_token(CancellationToken{}).unlimited());

  set_default_solve_budget_ms(1e7);
  const CancellationToken budgeted = effective_solve_token({});
  EXPECT_FALSE(budgeted.unlimited());
  EXPECT_FALSE(budgeted.expired());

  // A token that already carries a deadline keeps it (no double budgeting:
  // solvers resolve the token once at entry, and nested solves see a
  // deadline-carrying token).
  const CancellationToken own{Deadline::after_s(0.0)};
  EXPECT_TRUE(effective_solve_token(own).expired());

  // The cancel flag is preserved when the default is applied.
  CancellationSource source;
  source.request_cancel();
  EXPECT_TRUE(effective_solve_token(source.token()).cancel_requested());
}

}  // namespace
}  // namespace mecsched
