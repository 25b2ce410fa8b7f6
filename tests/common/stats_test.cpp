#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace mecsched {
namespace {

// The empty-series contract: "no data" reads as NaN for every order
// statistic and the mean, never a fabricated 0 or ±infinity. Only sum() is
// 0 (the additive identity).
TEST(SummaryTest, EmptySummaryIsNaNExceptSum) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

// One sample: its own mean/min/max.
TEST(SummaryTest, SingleValue) {
  Summary s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(SummaryTest, KnownMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(PercentileTest, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 0.5), 2.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 0.25), 2.5);
}

TEST(PercentileTest, Extremes) {
  std::vector<double> v = {5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(PercentileTest, EmptyGivesNaN) {
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
  EXPECT_TRUE(std::isnan(percentile({}, 0.0)));
  EXPECT_TRUE(std::isnan(percentile({}, 1.0)));
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile({7.5}, q), 7.5);
  }
}

TEST(PercentileTest, OutOfRangeQuantileClamps) {
  std::vector<double> v = {5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(percentile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 9.0);
}

}  // namespace
}  // namespace mecsched
