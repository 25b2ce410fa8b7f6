// Set cover as the classical problem, for the tests: the greedy algorithm
// on its own and an exhaustive minimum to judge it by.
//
// Sec. IV.B reduces "Optimal Coverage of D with Smallest Set Number" to Set
// Cover over the family {UD_1, ..., UD_n}; the classical greedy algorithm
// achieves the H_n <= ln(n)+1 ratio, the best possible unless P=NP [21].
// These let the ratio be tested against a brute-force oracle independent
// of the MEC context.
#pragma once

#include <cstddef>
#include <vector>

#include "dta/data_model.h"

namespace mecsched::dta {

// Returns the indices of the chosen sets, in pick order: greedy_cover with
// the most-uncovered-items rule. Throws ModelError if the universe is not
// covered by the union of `sets`.
std::vector<std::size_t> greedy_set_cover(const ItemSet& universe,
                                          const std::vector<ItemSet>& sets);

// Exact minimum cover by exhaustive search (sets.size() <= 20).
std::vector<std::size_t> exact_set_cover(const ItemSet& universe,
                                         const std::vector<ItemSet>& sets);

}  // namespace mecsched::dta
