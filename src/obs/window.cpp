#include "obs/window.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace mecsched::obs {
namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

WindowedHistogram::WindowedHistogram(double epoch_seconds,
                                     std::size_t num_epochs)
    // ring_ is sized in the init list: guarded members are initialized
    // before the object can be shared, keeping the constructor body free
    // of guarded accesses.
    : epoch_seconds_(epoch_seconds), num_epochs_(num_epochs),
      ring_(num_epochs) {
  MECSCHED_REQUIRE(std::isfinite(epoch_seconds) && epoch_seconds >= 0.0,
                   "window epoch_seconds must be finite and >= 0");
  MECSCHED_REQUIRE(num_epochs > 0, "window needs at least one epoch");
}

std::uint64_t WindowedHistogram::current_index_locked() const {
  std::uint64_t timed = 0;
  if (epoch_seconds_ > 0.0) {
    timed = static_cast<std::uint64_t>(elapsed_seconds(start_) /
                                       epoch_seconds_);
  }
  return timed + manual_offset_;
}

WindowedHistogram::Epoch& WindowedHistogram::epoch_for_write_locked(
    std::uint64_t index) {
  Epoch& e = ring_[static_cast<std::size_t>(index % num_epochs_)];
  if (!e.live || e.index != index) {
    e.live = true;
    e.index = index;
    e.count = 0;
    e.sum = 0.0;
    e.min = std::numeric_limits<double>::infinity();
    e.max = -std::numeric_limits<double>::infinity();
    e.buckets.assign(Histogram::bucket_bounds().size(), 0);
  }
  return e;
}

void WindowedHistogram::observe(double v) {
  const MutexLock lock(mu_);
  add(epoch_for_write_locked(current_index_locked()), v);
}

void WindowedHistogram::observe_all(std::span<const double> values) {
  if (values.empty()) return;
  const MutexLock lock(mu_);
  Epoch& e = epoch_for_write_locked(current_index_locked());
  for (const double v : values) add(e, v);
}

void WindowedHistogram::add(Epoch& e, double v) {
  ++e.count;
  e.sum += v;
  e.min = std::min(e.min, v);
  e.max = std::max(e.max, v);
  // Mirror Histogram::observe: NaN (and anything above the last finite
  // bound) lands only in the implicit +Inf bucket, i.e. in the count.
  if (std::isnan(v)) return;
  const std::vector<double>& bounds = Histogram::bucket_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  if (it != bounds.end()) {
    ++e.buckets[static_cast<std::size_t>(it - bounds.begin())];
  }
}

void WindowedHistogram::advance(std::size_t epochs) {
  const MutexLock lock(mu_);
  manual_offset_ += epochs;
}

WindowedHistogram::Aggregate WindowedHistogram::aggregate_locked(
    std::uint64_t now_index) const {
  Aggregate agg;
  agg.buckets.assign(Histogram::bucket_bounds().size(), 0);
  // Live = within the last num_epochs_ epochs ending at now_index.
  const std::uint64_t oldest =
      now_index >= num_epochs_ - 1 ? now_index - (num_epochs_ - 1) : 0;
  for (const Epoch& e : ring_) {
    if (!e.live || e.index < oldest || e.index > now_index) continue;
    agg.count += e.count;
    agg.sum += e.sum;
    agg.min = std::min(agg.min, e.min);
    agg.max = std::max(agg.max, e.max);
    for (std::size_t i = 0; i < agg.buckets.size(); ++i) {
      agg.buckets[i] += e.buckets[i];
    }
  }
  return agg;
}

WindowedHistogram::Aggregate WindowedHistogram::aggregate() const {
  const MutexLock lock(mu_);
  return aggregate_locked(current_index_locked());
}

WindowedHistogram::Snapshot WindowedHistogram::snapshot() const {
  Aggregate agg;
  double span = 0.0;
  {
    const MutexLock lock(mu_);
    agg = aggregate_locked(current_index_locked());
    if (epoch_seconds_ > 0.0) {
      // Covered span: what the window has actually seen — the full ring
      // once warmed up, the elapsed time (floored at one epoch) before.
      span = std::clamp(elapsed_seconds(start_), epoch_seconds_,
                        epoch_seconds_ * static_cast<double>(num_epochs_));
    }
  }
  Snapshot s;
  s.count = agg.count;
  s.sum = agg.sum;
  s.span_seconds = span;
  if (agg.count > 0) {
    s.min = agg.min;
    s.max = agg.max;
    std::vector<std::uint64_t> cumulative(agg.buckets.size(), 0);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < agg.buckets.size(); ++i) {
      acc += agg.buckets[i];
      cumulative[i] = acc;
    }
    s.p50 = percentile_from_buckets(cumulative, agg.count, 0.50, agg.min,
                                    agg.max);
    s.p90 = percentile_from_buckets(cumulative, agg.count, 0.90, agg.min,
                                    agg.max);
    s.p95 = percentile_from_buckets(cumulative, agg.count, 0.95, agg.min,
                                    agg.max);
    s.p99 = percentile_from_buckets(cumulative, agg.count, 0.99, agg.min,
                                    agg.max);
  }
  if (span > 0.0) s.rate_hz = static_cast<double>(agg.count) / span;
  return s;
}

void WindowedHistogram::fold_locked(const Aggregate& agg) {
  if (agg.count == 0) return;
  Epoch& e = epoch_for_write_locked(current_index_locked());
  e.count += agg.count;
  e.sum += agg.sum;
  e.min = std::min(e.min, agg.min);
  e.max = std::max(e.max, agg.max);
  for (std::size_t i = 0; i < e.buckets.size() && i < agg.buckets.size();
       ++i) {
    e.buckets[i] += agg.buckets[i];
  }
}

void WindowedHistogram::merge_from(const WindowedHistogram& other) {
  // Snapshot `other` under its own lock before taking ours — same
  // self-merge / concurrent-writer discipline as Histogram::merge_from.
  const Aggregate agg = other.aggregate();
  const MutexLock lock(mu_);
  fold_locked(agg);
}

void WindowedHistogram::reset() {
  const MutexLock lock(mu_);
  for (Epoch& e : ring_) e = Epoch{};
  manual_offset_ = 0;
  start_ = std::chrono::steady_clock::now();
}

RateWindow::RateWindow(double epoch_seconds, std::size_t num_epochs)
    : epoch_seconds_(epoch_seconds), num_epochs_(num_epochs),
      ring_(num_epochs) {
  MECSCHED_REQUIRE(std::isfinite(epoch_seconds) && epoch_seconds >= 0.0,
                   "window epoch_seconds must be finite and >= 0");
  MECSCHED_REQUIRE(num_epochs > 0, "window needs at least one epoch");
}

std::uint64_t RateWindow::current_index_locked() const {
  std::uint64_t timed = 0;
  if (epoch_seconds_ > 0.0) {
    timed = static_cast<std::uint64_t>(elapsed_seconds(start_) /
                                       epoch_seconds_);
  }
  return timed + manual_offset_;
}

void RateWindow::record(std::uint64_t n) {
  const MutexLock lock(mu_);
  const std::uint64_t index = current_index_locked();
  Epoch& e = ring_[static_cast<std::size_t>(index % num_epochs_)];
  if (!e.live || e.index != index) {
    e.live = true;
    e.index = index;
    e.count = 0;
  }
  e.count += n;
}

void RateWindow::advance(std::size_t epochs) {
  const MutexLock lock(mu_);
  manual_offset_ += epochs;
}

std::uint64_t RateWindow::live_count_locked(std::uint64_t now_index) const {
  const std::uint64_t oldest =
      now_index >= num_epochs_ - 1 ? now_index - (num_epochs_ - 1) : 0;
  std::uint64_t count = 0;
  for (const Epoch& e : ring_) {
    if (e.live && e.index >= oldest && e.index <= now_index) count += e.count;
  }
  return count;
}

RateWindow::Snapshot RateWindow::snapshot() const {
  const MutexLock lock(mu_);
  Snapshot s;
  s.count = live_count_locked(current_index_locked());
  if (epoch_seconds_ > 0.0) {
    s.span_seconds =
        std::clamp(elapsed_seconds(start_), epoch_seconds_,
                   epoch_seconds_ * static_cast<double>(num_epochs_));
    s.rate_hz = static_cast<double>(s.count) / s.span_seconds;
  }
  return s;
}

void RateWindow::merge_from(const RateWindow& other) {
  std::uint64_t live = 0;
  {
    const MutexLock lock(other.mu_);
    live = other.live_count_locked(other.current_index_locked());
  }
  if (live == 0) return;
  record(live);
}

void RateWindow::reset() {
  const MutexLock lock(mu_);
  for (Epoch& e : ring_) e = Epoch{};
  manual_offset_ = 0;
  start_ = std::chrono::steady_clock::now();
}

}  // namespace mecsched::obs
