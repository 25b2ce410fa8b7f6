#include "dta/data_model.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace mecsched::dta {

ItemSet set_intersect(const ItemSet& a, const ItemSet& b) {
  ItemSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

ItemSet set_union(const ItemSet& a, const ItemSet& b) {
  ItemSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

ItemSet set_minus(const ItemSet& a, const ItemSet& b) {
  ItemSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool is_sorted_unique(const ItemSet& a) {
  for (std::size_t i = 1; i < a.size(); ++i) {
    if (a[i - 1] >= a[i]) return false;
  }
  return true;
}

OwnerIndex::OwnerIndex(const ItemSet& items, const std::vector<ItemSet>& sets)
    : owners_begin_(items.size() + 1, 0) {
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  const std::size_t id_end = items.empty() ? 0 : items.back() + 1;
  std::vector<std::size_t> position(id_end, kAbsent);
  for (std::size_t p = 0; p < items.size(); ++p) position[items[p]] = p;
  std::size_t set_items = 0;
  for (const ItemSet& set : sets) set_items += set.size();
  held_.reserve(set_items);
  held_begin_.reserve(sets.size() + 1);
  held_begin_.push_back(0);
  for (const ItemSet& set : sets) {
    for (const std::size_t r : set) {
      if (r >= id_end) break;  // sorted: the rest lie above items.back()
      const std::size_t p = position[r];
      if (p == kAbsent) continue;
      held_.push_back(p);
      ++owners_begin_[p + 1];
    }
    held_begin_.push_back(held_.size());
  }
  std::partial_sum(owners_begin_.begin(), owners_begin_.end(),
                   owners_begin_.begin());
  // Sets are visited in ascending order, so each item's owners are too.
  owners_.resize(held_.size());
  std::vector<std::size_t>& next = position;  // reused: one cursor per item
  next.assign(owners_begin_.begin(), owners_begin_.end() - 1);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (const std::size_t p : held(i)) owners_[next[p]++] = i;
  }
}

DataUniverse::DataUniverse(std::vector<double> item_bytes)
    : item_bytes_(std::move(item_bytes)) {
  for (double b : item_bytes_) {
    MECSCHED_REQUIRE(b >= 0.0, "item size must be non-negative");
  }
}

void DataUniverse::check_item(std::size_t r) const {
  MECSCHED_REQUIRE(r < item_bytes_.size(), "item id out of range");
}

void SharedDataScenario::validate() const {
  MECSCHED_REQUIRE(ownership.size() == topology.num_devices(),
                   "ownership must list every device");
  for (const ItemSet& d : ownership) {
    MECSCHED_REQUIRE(is_sorted_unique(d), "ownership sets must be sorted");
    for (std::size_t r : d) {
      MECSCHED_REQUIRE(r < universe.num_items(), "owned item out of range");
    }
  }
  for (const DivisibleTask& t : tasks) {
    MECSCHED_REQUIRE(t.id.user < topology.num_devices(),
                     "task issued by unknown device");
    MECSCHED_REQUIRE(is_sorted_unique(t.items), "task items must be sorted");
    for (std::size_t r : t.items) {
      MECSCHED_REQUIRE(r < universe.num_items(), "task item out of range");
    }
  }
}

ItemSet SharedDataScenario::required_items() const {
  std::vector<char> needed(universe.num_items(), 0);
  for (const DivisibleTask& t : tasks) {
    for (const std::size_t r : t.items) {
      MECSCHED_REQUIRE(r < needed.size(), "task item out of range");
      needed[r] = 1;
    }
  }
  ItemSet d;
  for (std::size_t r = 0; r < needed.size(); ++r) {
    if (needed[r]) d.push_back(r);
  }
  return d;
}

}  // namespace mecsched::dta
