#include "set_cover_oracles.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace mecsched::dta {
namespace {

TEST(GreedySetCoverTest, SingleSetCoversAll) {
  const auto chosen = greedy_set_cover({1, 2, 3}, {{1, 2, 3}, {1}});
  EXPECT_EQ(chosen, (std::vector<std::size_t>{0}));
}

TEST(GreedySetCoverTest, PicksLargestFirst) {
  const auto chosen =
      greedy_set_cover({0, 1, 2, 3, 4}, {{0, 1}, {2, 3, 4}, {0, 4}});
  ASSERT_GE(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], 1u);  // the 3-element set wins round one
}

TEST(GreedySetCoverTest, EmptyUniverseNeedsNothing) {
  EXPECT_TRUE(greedy_set_cover({}, {{1, 2}}).empty());
}

TEST(GreedySetCoverTest, UncoverableThrows) {
  EXPECT_THROW(greedy_set_cover({1, 2, 9}, {{1, 2}}), ModelError);
  EXPECT_THROW(exact_set_cover({1, 2, 9}, {{1, 2}}), ModelError);
}

TEST(ExactSetCoverTest, FindsMinimum) {
  // greedy takes {0..3} then two more; optimal is the two halves.
  const ItemSet universe = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<ItemSet> sets = {
      {0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 6, 7}, {4, 5}, {6, 7}};
  const auto exact = exact_set_cover(universe, sets);
  EXPECT_EQ(exact.size(), 2u);
}

TEST(ExactSetCoverTest, RejectsLargeFamilies) {
  std::vector<ItemSet> sets(21, ItemSet{0});
  EXPECT_THROW(exact_set_cover({0}, sets), ModelError);
}

class GreedyRatio : public ::testing::TestWithParam<int> {};

TEST_P(GreedyRatio, WithinLnNOfOptimum) {
  // Property (Sec. IV.B): greedy uses at most H(|largest set|) ~ ln n + 1
  // times the optimal number of sets.
  mecsched::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 11);
  const auto n_items = static_cast<std::size_t>(rng.uniform_int(4, 16));
  const auto n_sets = static_cast<std::size_t>(rng.uniform_int(3, 10));
  ItemSet universe;
  for (std::size_t i = 0; i < n_items; ++i) universe.push_back(i);

  std::vector<ItemSet> sets(n_sets);
  // Guarantee coverability: spread items round-robin, then add noise.
  for (std::size_t i = 0; i < n_items; ++i) {
    sets[i % n_sets].push_back(i);
  }
  for (auto& s : sets) {
    for (std::size_t i = 0; i < n_items; ++i) {
      if (rng.bernoulli(0.3) && !std::binary_search(s.begin(), s.end(), i)) {
        s = set_union(s, {i});
      }
    }
  }

  const auto greedy = greedy_set_cover(universe, sets);
  const auto exact = exact_set_cover(universe, sets);
  const double h_bound = std::log(static_cast<double>(n_items)) + 1.0;
  EXPECT_LE(static_cast<double>(greedy.size()),
            h_bound * static_cast<double>(exact.size()))
      << "seed " << GetParam();
  // and greedy is a real cover
  ItemSet covered;
  for (std::size_t i : greedy) covered = set_union(covered, sets[i]);
  EXPECT_TRUE(set_minus(universe, covered).empty());
}

INSTANTIATE_TEST_SUITE_P(Random, GreedyRatio, ::testing::Range(0, 30));

}  // namespace
}  // namespace mecsched::dta
