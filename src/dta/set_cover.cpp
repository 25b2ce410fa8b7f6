#include "dta/set_cover.h"

#include "common/error.h"

namespace mecsched::dta {

GreedyCover greedy_cover(const ItemSet& items, const std::vector<ItemSet>& sets,
                         GreedyRule rule, const char* uncoverable,
                         const DataUniverse* universe) {
  MECSCHED_REQUIRE(rule != GreedyRule::kLightest || universe != nullptr,
                   "the byte-weighted rule needs the universe");
  const std::size_t n = sets.size();
  const OwnerIndex index(items, sets);
  std::vector<std::size_t> left(n);  // uncovered items each set holds
  for (std::size_t i = 0; i < n; ++i) left[i] = index.held(i).size();
  std::vector<bool> covered(items.size(), false);
  // kLightest only: uncovered bytes per set and whether left[i] moved
  // since they were summed.
  std::vector<double> bytes(n, 0.0);
  std::vector<bool> stale(n, true);
  const auto uncovered_bytes = [&](std::size_t i) {
    double total = 0.0;
    for (const std::size_t p : index.held(i)) {
      if (!covered[p]) total += universe->item_size(items[p]);
    }
    return total;
  };
  const auto better = [&](std::size_t i, std::size_t than) {
    switch (rule) {
      case GreedyRule::kFewest:
        return left[i] < left[than];
      case GreedyRule::kMost:
        return left[i] > left[than];
      case GreedyRule::kLightest:
        return bytes[i] < bytes[than];
    }
    return false;
  };

  GreedyCover out;
  std::size_t uncovered = items.size();
  while (uncovered > 0) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (left[i] == 0) continue;
      if (rule == GreedyRule::kLightest && stale[i]) {
        bytes[i] = uncovered_bytes(i);
        stale[i] = false;
      }
      if (best == n || better(i, best)) best = i;
    }
    if (best == n) throw ModelError(uncoverable);
    ItemSet& took = out.taken.emplace_back();
    took.reserve(left[best]);
    for (const std::size_t p : index.held(best)) {
      if (covered[p]) continue;
      covered[p] = true;
      took.push_back(items[p]);
      for (const std::size_t o : index.owners(p)) {
        --left[o];
        stale[o] = true;
      }
    }
    uncovered -= took.size();
    out.picks.push_back(best);
  }
  return out;
}

}  // namespace mecsched::dta
