#include "dta/coverage.h"

#include <algorithm>

#include "dta/set_cover.h"

namespace mecsched::dta {

std::size_t Coverage::involved_devices() const {
  std::size_t n = 0;
  for (const ItemSet& s : assigned) n += s.empty() ? 0 : 1;
  return n;
}

std::size_t Coverage::max_share() const {
  std::size_t mx = 0;
  for (const ItemSet& s : assigned) mx = std::max(mx, s.size());
  return mx;
}

double Coverage::max_share_bytes(const DataUniverse& universe) const {
  double mx = 0.0;
  for (const ItemSet& s : assigned) {
    mx = std::max(mx, universe.total_bytes(s));
  }
  return mx;
}

namespace {

Coverage to_coverage(std::size_t devices, GreedyCover picked) {
  Coverage cover;
  cover.assigned.assign(devices, {});
  for (std::size_t k = 0; k < picked.picks.size(); ++k) {
    cover.assigned[picked.picks[k]] = std::move(picked.taken[k]);
  }
  return cover;
}

}  // namespace

Coverage divide_balanced(const ItemSet& needed,
                         const std::vector<ItemSet>& ownership) {
  // Paper Sec. IV.A, Steps 1-3: repeatedly pick the device with the
  // *smallest non-empty* intersection with the remaining data, hand it that
  // whole intersection, and shrink D. Devices whose data is scarce are
  // served first, so no single remaining owner is forced into a huge share.
  return to_coverage(ownership.size(),
                     greedy_cover(needed, ownership, GreedyRule::kFewest,
                                  "DTA-Workload: data item owned by no device"));
}

Coverage divide_balanced_bytes(const ItemSet& needed,
                               const std::vector<ItemSet>& ownership,
                               const DataUniverse& universe) {
  return to_coverage(
      ownership.size(),
      greedy_cover(needed, ownership, GreedyRule::kLightest,
                   "DTA-Workload(bytes): data item owned by no device",
                   &universe));
}

Coverage divide_min_devices(const ItemSet& needed,
                            const std::vector<ItemSet>& ownership) {
  // Greedy set cover picks the devices; each picked device takes every
  // still-unassigned item it owns (Sec. IV.B, Steps 1-3).
  return to_coverage(
      ownership.size(),
      greedy_cover(needed, ownership, GreedyRule::kMost,
                   "set cover: universe not coverable by the family"));
}

bool is_valid_coverage(const Coverage& c, const ItemSet& needed,
                       const std::vector<ItemSet>& ownership) {
  if (c.assigned.size() != ownership.size()) return false;
  ItemSet all;
  std::size_t total = 0;
  for (std::size_t i = 0; i < c.assigned.size(); ++i) {
    if (!is_sorted_unique(c.assigned[i])) return false;
    // C_i ⊆ D_i (no raw-data movement)
    if (!set_minus(c.assigned[i], ownership[i]).empty()) return false;
    all = set_union(all, c.assigned[i]);
    total += c.assigned[i].size();
  }
  // disjoint (sizes add up) and complete (union == needed)
  return total == all.size() && all == needed;
}

}  // namespace mecsched::dta
