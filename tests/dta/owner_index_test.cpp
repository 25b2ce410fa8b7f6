// Differential test of OwnerIndex against the binary-search build it
// replaced, kept below as the reference: one forward lower_bound per set
// item over `items`. Both must give the same held() and owners() lists,
// element for element, on random families, on ids outside `items` (below,
// between and above its ids), on empty sets and on an empty `items`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "dta/data_model.h"

namespace mecsched::dta {
namespace {

// ---- The reference: positions found by lower_bound, owners by a second
// pass over the sets.
struct RefIndex {
  std::vector<std::vector<std::size_t>> held;    // set -> positions
  std::vector<std::vector<std::size_t>> owners;  // position -> sets
};

RefIndex reference(const ItemSet& items, const std::vector<ItemSet>& sets) {
  RefIndex out;
  out.held.resize(sets.size());
  out.owners.resize(items.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    auto at = items.begin();
    for (const std::size_t r : sets[i]) {
      at = std::lower_bound(at, items.end(), r);
      if (at == items.end()) break;
      if (*at != r) continue;
      const auto p = static_cast<std::size_t>(at - items.begin());
      out.held[i].push_back(p);
      out.owners[p].push_back(i);
    }
  }
  return out;
}

void expect_same(const ItemSet& items, const std::vector<ItemSet>& sets) {
  const OwnerIndex index(items, sets);
  const RefIndex ref = reference(items, sets);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto held = index.held(i);
    EXPECT_EQ(std::vector<std::size_t>(held.begin(), held.end()), ref.held[i])
        << "set " << i;
  }
  for (std::size_t p = 0; p < items.size(); ++p) {
    const auto owners = index.owners(p);
    EXPECT_EQ(std::vector<std::size_t>(owners.begin(), owners.end()),
              ref.owners[p])
        << "position " << p;
  }
}

// A sorted unique sample of `ids`, each kept with probability `keep`.
ItemSet sample(Rng& rng, const ItemSet& ids, double keep) {
  ItemSet out;
  for (const std::size_t r : ids) {
    if (rng.bernoulli(keep)) out.push_back(r);
  }
  return out;
}

TEST(OwnerIndexTest, MatchesReferenceOnRandomFamilies) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const auto id_space = static_cast<std::size_t>(rng.uniform_int(1, 400));
    ItemSet all(id_space);
    std::iota(all.begin(), all.end(), std::size_t{0});
    // `items` is a subset of the id space, so sets also name ids outside
    // it: below its first id, in its gaps and above its last id.
    const ItemSet items = sample(rng, all, rng.uniform(0.05, 1.0));
    std::vector<ItemSet> sets(
        static_cast<std::size_t>(rng.uniform_int(0, 30)));
    for (ItemSet& set : sets) set = sample(rng, all, rng.uniform(0.0, 0.5));
    SCOPED_TRACE(seed);
    expect_same(items, sets);
  }
}

TEST(OwnerIndexTest, IdsAboveTheLastItemAreSkipped) {
  const ItemSet items = {2, 5, 9};
  expect_same(items, {{9, 10, 11}, {0, 1, 3, 4}, {2, 5, 9, 1000000}, {12}});
  const OwnerIndex index(items, {{9, 10, 11}, {12}});
  EXPECT_EQ(index.held(0).size(), 1u);
  EXPECT_TRUE(index.held(1).empty());
}

TEST(OwnerIndexTest, EmptySetsAndEmptyItems) {
  expect_same({1, 2, 3}, {{}, {1, 3}, {}});
  expect_same({}, {{1, 2}, {}, {7}});
  expect_same({}, {});
  expect_same({4}, {});
  const OwnerIndex index({}, {{1, 2}, {}});
  EXPECT_TRUE(index.held(0).empty());
  EXPECT_TRUE(index.held(1).empty());
}

TEST(OwnerIndexTest, ArbitrarySparseIds) {
  // Not a dense universe: the index still maps ids to positions.
  const ItemSet items = {3, 40, 41, 977};
  expect_same(items, {{3, 977}, {0, 40, 41, 500}, {977}, {41, 976, 978}});
}

}  // namespace
}  // namespace mecsched::dta
