// Data-division algorithms of Sec. IV.A / IV.B.
//
// Both produce a Coverage: per-device disjoint item sets whose union is the
// required data D, with C_i ⊆ D ∩ D_i so that no raw data ever moves.
//
//   divide_balanced    — DTA-Workload (Def. 1): greedy assignment that
//                        processes devices in increasing |UD_i ∩ D| order,
//                        keeping max_i |C_i| small (submodular analysis,
//                        ratio 1/(1-e^-1), Thm. 3 / Cor. 2).
//   divide_min_devices — DTA-Number (Def. 2): greedy Set Cover on
//                        {UD_1..UD_n}, ratio O(ln n).
#pragma once

#include <vector>

#include "dta/data_model.h"

namespace mecsched::dta {

struct Coverage {
  std::vector<ItemSet> assigned;  // C_i per device

  std::size_t involved_devices() const;
  // max_i |C_i| — the quantity DTA-Workload minimizes.
  std::size_t max_share() const;
  // max_i Σ_{r ∈ C_i} size(r) — the byte-weighted analogue.
  double max_share_bytes(const DataUniverse& universe) const;
};

// Throws ModelError if some item of `needed` is owned by no device.
Coverage divide_balanced(const ItemSet& needed,
                         const std::vector<ItemSet>& ownership);

Coverage divide_min_devices(const ItemSet& needed,
                            const std::vector<ItemSet>& ownership);

// Byte-weighted DTA-Workload: the paper's Def. 1 counts items, which is
// the right load proxy only for equal-size blocks. With heterogeneous
// block sizes this variant greedily serves the device whose available data
// *volume* is smallest, balancing bytes instead of cardinalities.
Coverage divide_balanced_bytes(const ItemSet& needed,
                               const std::vector<ItemSet>& ownership,
                               const DataUniverse& universe);

// Audit helper for tests: disjoint, complete (covers `needed` exactly) and
// ownership-respecting.
bool is_valid_coverage(const Coverage& c, const ItemSet& needed,
                       const std::vector<ItemSet>& ownership);

}  // namespace mecsched::dta
