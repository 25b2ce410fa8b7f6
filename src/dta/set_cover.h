// Generic greedy Set Cover.
//
// Sec. IV.B reduces "Optimal Coverage of D with Smallest Set Number" to Set
// Cover over the family {UD_1, ..., UD_n}; the classical greedy algorithm
// achieves the H_n <= ln(n)+1 ratio, the best possible unless P=NP [21].
#pragma once

#include <vector>

#include "dta/data_model.h"

namespace mecsched::dta {

// The greedy skeleton of set cover and of the divisions of Sec. IV.A/B:
// while some item is uncovered, pick one set by `rule` among the sets
// that still hold an uncovered item (lowest index on ties) and let it
// take every uncovered item it holds.
enum class GreedyRule {
  kFewest,    // fewest uncovered items (DTA-Workload)
  kMost,      // most uncovered items (set cover, DTA-Number)
  kLightest,  // fewest uncovered bytes (DTA-Workload(bytes))
};

struct GreedyCover {
  std::vector<std::size_t> picks;  // set indices, in pick order
  std::vector<ItemSet> taken;      // taken[k]: the items picks[k] took
};

// `items` and every set are sorted unique with arbitrary ids. Each set
// keeps a count of the uncovered items it holds, decremented through an
// OwnerIndex as items are covered, so a run costs
// O(Σ|set| + items.back() + picks·|sets|). kLightest needs `universe`; it
// re-sums a set's uncovered bytes in ascending item order, as
// total_bytes of the intersection would, only after its count changed
// (O(|set|) per re-sum; a decremented double could flip a tie).
// Throws ModelError(`uncoverable`) if an item lies in no set.
GreedyCover greedy_cover(const ItemSet& items, const std::vector<ItemSet>& sets,
                         GreedyRule rule, const char* uncoverable,
                         const DataUniverse* universe = nullptr);

}  // namespace mecsched::dta
