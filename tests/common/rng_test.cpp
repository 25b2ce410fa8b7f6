#include "common/rng.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "common/error.h"
#include "common/stats.h"

namespace mecsched {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.5, 9.75);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 9.75);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(7);
  Summary s;
  for (int i = 0; i < 20'000; ++i) s.add(rng.uniform(0.0, 1.0));
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversEndpoints) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 4));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(0));
  EXPECT_TRUE(seen.count(4));
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 50'000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.15);
}

TEST(RngTest, TruncatedNormalRespectsFloor) {
  // A normal draw truncated below by resampling, on the Rng's engine.
  Rng rng(17);
  std::normal_distribution<double> normal(1.0, 2.0);
  for (int i = 0; i < 1000; ++i) {
    double x = normal(rng.engine());
    while (x < 0.5) x = normal(rng.engine());
    EXPECT_GE(x, 0.5);
  }
}

TEST(RngTest, WeightedIndexProportions) {
  Rng rng(19);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.weighted_index(w) == 1) ++ones;
  }
  EXPECT_NEAR(ones / 20'000.0, 0.75, 0.02);
}

TEST(RngTest, WeightedIndexRejectsEmptyAndZero) {
  Rng rng(23);
  EXPECT_THROW(rng.weighted_index({}), ModelError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), ModelError);
}

TEST(RngTest, SampleWithoutReplacementIsCorrectSize) {
  Rng rng(29);
  const auto s = rng.sample_without_replacement(100, 17);
  EXPECT_EQ(s.size(), 17u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 17u);
  for (std::size_t v : s) EXPECT_LT(v, 100u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(RngTest, SampleAllElements) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(10, 10);
  EXPECT_EQ(s.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, SampleRejectsOversizedRequest) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), ModelError);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent(99);
  Rng c1 = parent.fork(0);
  Rng c2 = parent.fork(1);
  Rng c1_again = Rng(99).fork(0);
  EXPECT_EQ(c1.uniform_int(0, 1 << 30), c1_again.uniform_int(0, 1 << 30));
  // distinct streams should not track each other
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.uniform_int(0, 1 << 30) == c2.uniform_int(0, 1 << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRejectsInvertedBounds) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ModelError);
  EXPECT_THROW(rng.uniform_int(5, 4), ModelError);
}

// Regression for the parallel-sweep contract: substream(key) must depend
// only on (seed, key) — not on how much the parent was drawn from or how
// many other substreams were derived first. A violation here would make
// sweep results depend on worker scheduling.
TEST(RngTest, SubstreamIsIndependentOfOtherDrawsAndDerivations) {
  Rng fresh(123);
  Rng used(123);
  for (int i = 0; i < 37; ++i) (void)used.uniform(0.0, 1.0);
  for (std::uint64_t k = 0; k < 50; ++k) {
    Rng other = used.substream(k);
    (void)other.uniform(0.0, 1.0);
  }
  EXPECT_EQ(fresh.substream_seed(77), used.substream_seed(77));
  Rng a = fresh.substream(77);
  Rng b = used.substream(77);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
  }
}

TEST(RngTest, SubstreamsAreDecorrelatedAcrossKeysAndFromFork) {
  const Rng root(9);
  EXPECT_NE(root.substream_seed(1), root.substream_seed(2));
  // Adjacent keys and the equally-keyed fork() child must all be distinct
  // streams.
  Rng s1 = root.substream(1);
  Rng s2 = root.substream(2);
  Rng f1 = root.fork(1);
  int s1_eq_s2 = 0;
  int s1_eq_f1 = 0;
  for (int i = 0; i < 100; ++i) {
    const auto a = s1.uniform_int(0, 1 << 30);
    if (a == s2.uniform_int(0, 1 << 30)) ++s1_eq_s2;
    if (a == f1.uniform_int(0, 1 << 30)) ++s1_eq_f1;
  }
  EXPECT_LT(s1_eq_s2, 3);
  EXPECT_LT(s1_eq_f1, 3);
}

}  // namespace
}  // namespace mecsched
