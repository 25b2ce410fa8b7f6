// The data-shared model of Sec. IV.
//
// D = {d_1, ..., d_M} is a universe of data items (blocks, after [19]);
// every mobile device i owns a subset D_i (monitoring regions overlap, so
// the D_i are not disjoint); a *divisible* task needs some subset of D and
// can be computed as an aggregation of partial results over any disjoint
// division of its data.
//
// Item sets are sorted unique vectors of item ids. The helpers below are
// their set algebra; the greedy divisions run on an OwnerIndex instead.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mec/task.h"
#include "mec/topology.h"

namespace mecsched::dta {

using ItemSet = std::vector<std::size_t>;  // sorted, unique ids

// Sorted-set algebra (inputs must be sorted unique; outputs are too).
ItemSet set_intersect(const ItemSet& a, const ItemSet& b);
ItemSet set_union(const ItemSet& a, const ItemSet& b);
ItemSet set_minus(const ItemSet& a, const ItemSet& b);
bool is_sorted_unique(const ItemSet& a);

// Item → owner index of a family of sorted unique `sets` (the D_i) over the
// positions 0..|items|-1 of a sorted unique item list: owners(p) are the
// sets holding items[p] and held(i) the positions set i holds, both
// ascending. Ids outside `items` are skipped. Each set item finds its
// position through a dense id → position map sized items.back() + 1, so
// the build is O(Σ|set| + items.back()) time and memory with a fixed
// number of heap blocks; `items` are expected to be ids of a universe
// 0..|D|-1 (any sorted unique ids work, at that memory cost).
class OwnerIndex {
 public:
  OwnerIndex(const ItemSet& items, const std::vector<ItemSet>& sets);

  std::span<const std::size_t> owners(std::size_t p) const {
    return {owners_.data() + owners_begin_[p],
            owners_begin_[p + 1] - owners_begin_[p]};
  }
  std::span<const std::size_t> held(std::size_t i) const {
    return {held_.data() + held_begin_[i], held_begin_[i + 1] - held_begin_[i]};
  }

 private:
  std::vector<std::size_t> held_begin_;  // CSR: set → positions
  std::vector<std::size_t> held_;
  std::vector<std::size_t> owners_begin_;  // CSR: position → sets
  std::vector<std::size_t> owners_;
};

// The universe D with per-item sizes.
class DataUniverse {
 public:
  explicit DataUniverse(std::vector<double> item_bytes);

  std::size_t num_items() const { return item_bytes_.size(); }
  // Inline for the per-item loops of the divisions and the pipeline; an
  // id out of range throws ModelError from the cold out-of-line check.
  double item_size(std::size_t r) const {
    if (r >= item_bytes_.size()) [[unlikely]] check_item(r);
    return item_bytes_[r];
  }
  // Summed in the order of `items` (ascending ids).
  double total_bytes(const ItemSet& items) const {
    double total = 0.0;
    for (const std::size_t r : items) total += item_size(r);
    return total;
  }

 private:
  [[gnu::cold]] void check_item(std::size_t r) const;

  std::vector<double> item_bytes_;
};

// A divisible task: the final result is an aggregation of partial results
// over any disjoint cover of `items` (e.g. Sum/Count in the paper).
struct DivisibleTask {
  mec::TaskId id;          // issuer (user) + index
  ItemSet items;           // LD ∪ ED: all data the task must consume
  double op_bytes = 1e3;   // size of the operation descriptor op_ij
  double cycles_per_byte = 330.0;
  mec::ResultSizeKind result_kind = mec::ResultSizeKind::kProportional;
  double result_ratio = 0.2;
  double result_const_bytes = 0.0;
  double resource = 1.0;   // C_ij
  double deadline_s = 0.0; // T_ij

  double result_bytes(double input_bytes) const {
    return result_kind == mec::ResultSizeKind::kProportional
               ? result_ratio * input_bytes
               : result_const_bytes;
  }
};

// A full data-shared problem instance.
struct SharedDataScenario {
  mec::Topology topology;
  DataUniverse universe;
  std::vector<ItemSet> ownership;  // D_i per device, sorted unique
  std::vector<DivisibleTask> tasks;

  // Validates sizes/ids; throws ModelError on inconsistency.
  void validate() const;

  // Union of all task item sets: the D that actually needs processing.
  // O(Σ|items| + |D|); throws PreconditionError on an item outside D.
  ItemSet required_items() const;
};

}  // namespace mecsched::dta
