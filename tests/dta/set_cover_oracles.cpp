#include "set_cover_oracles.h"

#include <cstdint>

#include "common/error.h"
#include "dta/set_cover.h"

namespace mecsched::dta {

std::vector<std::size_t> greedy_set_cover(const ItemSet& universe,
                                          const std::vector<ItemSet>& sets) {
  return greedy_cover(universe, sets, GreedyRule::kMost,
                      "set cover: universe not coverable by the family")
      .picks;
}

std::vector<std::size_t> exact_set_cover(const ItemSet& universe,
                                         const std::vector<ItemSet>& sets) {
  MECSCHED_REQUIRE(sets.size() <= 20, "exact set cover limited to 20 sets");
  const std::size_t n = sets.size();
  std::vector<std::size_t> best;
  bool found = false;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (found && static_cast<std::size_t>(__builtin_popcount(mask)) >=
                     best.size()) {
      continue;
    }
    ItemSet covered;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) covered = set_union(covered, sets[i]);
    }
    if (set_minus(universe, covered).empty()) {
      best.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) best.push_back(i);
      }
      found = true;
    }
  }
  if (!found) {
    throw ModelError("set cover: universe not coverable by the family");
  }
  return best;
}

}  // namespace mecsched::dta
