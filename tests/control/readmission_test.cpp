// ReadmissionQueue: the serve daemon's waiting room — the depth cap on
// new arrivals and the retry budget with exponential backoff.
#include "control/readmission.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace mecsched::control {
namespace {

TEST(ReadmissionQueueTest, CtorRejectsZeroBudgets) {
  EXPECT_THROW(ReadmissionQueue({0}), ModelError);
  EXPECT_THROW(ReadmissionQueue({0, 5}), ModelError);
}

TEST(ReadmissionQueueTest, TakeReadyPreservesAdmissionOrder) {
  ReadmissionQueue q;
  q.admit(7, 0);
  q.admit(3, 0);
  q.admit(9, 0);
  const std::vector<ReadmissionEntry> batch = q.take_ready(0);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 7u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_EQ(batch[2].id, 9u);
  EXPECT_TRUE(q.empty());
}

TEST(ReadmissionQueueTest, TakeReadyLeavesFutureEntriesWaiting) {
  ReadmissionQueue q;
  q.admit(1, 0);
  q.admit(2, 5);
  const auto now = q.take_ready(0);
  ASSERT_EQ(now.size(), 1u);
  EXPECT_EQ(now[0].id, 1u);
  EXPECT_EQ(q.waiting(), 1u);
  const auto later = q.take_ready(5);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].id, 2u);
}

TEST(ReadmissionQueueTest, RetryBacksOffExponentially) {
  ReadmissionQueue q({10});
  // attempts=1 -> delay 1 epoch; attempts=2 -> 2; attempts=3 -> 4.
  ASSERT_TRUE(q.retry(1, 1, 10));
  ASSERT_TRUE(q.retry(2, 2, 10));
  ASSERT_TRUE(q.retry(3, 3, 10));
  EXPECT_EQ(q.take_ready(10).size(), 0u);
  EXPECT_EQ(q.take_ready(11).size(), 1u);  // id 1 at 10+1
  EXPECT_EQ(q.take_ready(12).size(), 1u);  // id 2 at 10+2
  EXPECT_EQ(q.take_ready(13).size(), 0u);
  EXPECT_EQ(q.take_ready(14).size(), 1u);  // id 3 at 10+4
  EXPECT_EQ(q.retries(), 3u);
}

TEST(ReadmissionQueueTest, RetryRefusesOnceBudgetIsConsumed) {
  ReadmissionQueue q({2});
  EXPECT_TRUE(q.retry(1, 1, 0));
  EXPECT_FALSE(q.retry(2, 2, 0));  // 2 admissions consumed, budget 2
  EXPECT_EQ(q.retries(), 1u);
  EXPECT_EQ(q.waiting(), 1u);
}

TEST(ReadmissionQueueTest, BackoffShiftSaturatesForHugeAttemptCounts) {
  ReadmissionQueue q({100});
  // attempts=60 would shift 1 << 59 epochs; the shift is clamped so the
  // delay stays finite and the entry is eventually takeable.
  ASSERT_TRUE(q.retry(1, 60, 0));
  EXPECT_EQ(q.take_ready(1u << 20).size(), 1u);
}

// The depth cap on new arrivals (`--max-queue`); the suite name is the
// one the cap had as a class of its own.
TEST(AdmissionControlTest, UnlimitedByDefault) {
  ReadmissionQueue q;
  for (std::size_t id = 0; id < 10; ++id) EXPECT_TRUE(q.admit(id, 0));
  EXPECT_EQ(q.waiting(), 10u);
  EXPECT_EQ(q.admitted(), 10u);
  EXPECT_EQ(q.rejected(), 0u);
}

TEST(AdmissionControlTest, RejectsWhenQueueIsFull) {
  ReadmissionQueue q({3, 2});
  EXPECT_TRUE(q.admit(0, 0));
  EXPECT_TRUE(q.admit(1, 0));
  EXPECT_FALSE(q.admit(2, 0));
  EXPECT_FALSE(q.admit(3, 0));
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.rejected(), 2u);
  // A retry is never refused for depth, and an entry in backoff holds
  // its place until it is taken.
  EXPECT_TRUE(q.retry(0, 1, 0));
  EXPECT_EQ(q.waiting(), 3u);
  EXPECT_FALSE(q.admit(4, 0));
  EXPECT_EQ(q.take_ready(0).size(), 2u);  // the retry waits for epoch 1
  EXPECT_TRUE(q.admit(5, 0));
  EXPECT_FALSE(q.admit(6, 0));
  EXPECT_EQ(q.admitted(), 3u);
  EXPECT_EQ(q.rejected(), 4u);
}

}  // namespace
}  // namespace mecsched::control
