// The ids 0..n-1 grouped by a key in [0, k) as a CSR index: one array that
// holds k + 1 group bounds and then the ids counting-sorted by key, so
// group g is the ids between bounds g and g + 1, in ascending id order.
// One allocation however many groups there are.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mecsched {

class Grouping {
 public:
  Grouping() = default;

  // key_of(i) must lie in [0, num_keys) for every i < n.
  template <class KeyOf>
  Grouping(std::size_t n, std::size_t num_keys, KeyOf key_of)
      : index_(num_keys + 1 + n, 0) {
    // A bound is a position in index_. Count each key into its bound, turn
    // the counts into group ends, then place the ids last to first, so
    // each bound steps down to its group's start and every group comes out
    // ascending.
    for (std::size_t i = 0; i < n; ++i) ++index_[key_of(i)];
    std::size_t end = num_keys + 1;
    for (std::size_t g = 0; g < num_keys; ++g) {
      end += index_[g];
      index_[g] = end;
    }
    index_[num_keys] = end;
    for (std::size_t i = n; i-- > 0;) index_[--index_[key_of(i)]] = i;
  }

  std::span<const std::size_t> operator[](std::size_t g) const {
    return {index_.data() + index_[g], index_[g + 1] - index_[g]};
  }

 private:
  std::vector<std::size_t> index_;  // k + 1 bounds, then the ids
};

}  // namespace mecsched
