#include "control/readmission.h"

#include <algorithm>
#include <string>

#include "common/error.h"

namespace mecsched::control {

ReadmissionQueue::ReadmissionQueue(ReadmissionOptions options)
    : options_(options) {
  MECSCHED_REQUIRE(options_.max_attempts >= 1,
                   "max_attempts must be >= 1, got " +
                       std::to_string(options_.max_attempts));
}

bool ReadmissionQueue::admit(std::size_t id, std::size_t epoch) {
  if (options_.max_queue > 0 && waiting_.size() >= options_.max_queue) {
    ++rejected_;
    return false;
  }
  waiting_.push_back({id, epoch});
  ++admitted_;
  return true;
}

bool ReadmissionQueue::retry(std::size_t id, std::size_t attempts,
                             std::size_t epoch) {
  if (attempts >= options_.max_attempts) return false;
  // Shift caps at 2^20 epochs: far beyond any horizon, and safely below
  // the point where the shift itself would overflow.
  const std::size_t delay = std::size_t{1}
                            << std::min<std::size_t>(attempts - 1, 20);
  waiting_.push_back({id, epoch + delay});
  ++retries_;
  return true;
}

const std::vector<ReadmissionEntry>& ReadmissionQueue::take_ready(
    std::size_t epoch) {
  ready_.clear();
  std::size_t kept = 0;
  for (const ReadmissionEntry& w : waiting_) {
    if (w.ready_epoch <= epoch) {
      ready_.push_back(w);
    } else {
      waiting_[kept++] = w;
    }
  }
  waiting_.resize(kept);
  return ready_;
}

}  // namespace mecsched::control
