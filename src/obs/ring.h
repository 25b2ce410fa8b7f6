// A bounded ring under one mutex, the store behind the Tracer and the
// FlightRecorder: a push into a full ring overwrites the oldest item.
// The ring counts every push, so the drops and each item's append
// position follow from that count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace mecsched::obs {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  // Empties the ring and zeroes its push count; a `capacity` > 0
  // replaces the old one and is reserved up front.
  void clear(std::size_t capacity = 0) {
    const MutexLock lock(mu_);
    items_.clear();
    pushed_ = 0;
    if (capacity == 0) return;
    capacity_ = capacity;
    items_.reserve(capacity);
  }

  // Appends `item`; returns true when it overwrote the oldest.
  bool push(T item) {
    const MutexLock lock(mu_);
    const std::size_t slot = pushed_++ % capacity_;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
      return false;
    }
    items_[slot] = std::move(item);
    return true;
  }

  // Oldest-first copy; `first`, if given, gets the oldest's append
  // position. The oldest sits where the next push goes (before the ring
  // fills: one past the newest, so the first range is empty).
  std::vector<T> snapshot(std::uint64_t* first = nullptr) const {
    const MutexLock lock(mu_);
    const auto head = static_cast<long>(pushed_ % capacity_);
    std::vector<T> out(items_.begin() + head, items_.end());
    out.insert(out.end(), items_.begin(), items_.begin() + head);
    if (first != nullptr) *first = pushed_ - items_.size();
    return out;
  }

  std::uint64_t pushed() const {
    const MutexLock lock(mu_);
    return pushed_;
  }
  std::uint64_t dropped() const {
    const MutexLock lock(mu_);
    return pushed_ - items_.size();
  }

 private:
  mutable Mutex mu_;
  std::vector<T> items_ MECSCHED_GUARDED_BY(mu_);
  std::size_t capacity_ MECSCHED_GUARDED_BY(mu_);  // > 0
  std::uint64_t pushed_ MECSCHED_GUARDED_BY(mu_) = 0;
};

}  // namespace mecsched::obs
