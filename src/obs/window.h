// Windowed (rolling) metric primitives: WindowedHistogram and RateWindow.
//
// A process-lifetime Histogram answers "what happened since start"; the
// serve north-star needs "what is happening *now*" — rolling p50/p95/p99
// decision latency and event rates over the last N seconds. Both
// primitives here keep a ring of fixed-duration epochs; an observation
// lands in the current epoch, and a snapshot aggregates only the epochs
// still inside the window, so old load silently ages out.
//
// WindowedHistogram reuses Histogram's static log10 bucket grid, which
// makes epoch aggregation and cross-shard merging exact bucket adds and
// lets percentile_from_buckets() serve both the windowed and the
// process-lifetime views.
//
// Epoch advancement has two modes:
//   * timed (epoch_seconds > 0): the current epoch is derived from a
//     steady clock, so a long-running daemon rolls automatically;
//   * manual (epoch_seconds == 0): epochs advance only via advance() —
//     deterministic by construction, which is what the sweep-shard
//     determinism tests and epoch-driven callers (controller loops) use.
// advance() works in both modes (it shifts the epoch index on top of the
// clock), so a test can force expiry without sleeping.
//
// Thread-safety matches Histogram: one uncontended mutex per instance.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace mecsched::obs {

// Rolling distribution over the last `num_epochs * epoch_seconds` seconds.
class WindowedHistogram {
 public:
  // epoch_seconds == 0 selects manual mode (advance() only).
  explicit WindowedHistogram(double epoch_seconds = 1.0,
                             std::size_t num_epochs = 60);

  void observe(double v);
  // observe() of each value in order, under one lock and one clock read:
  // every value lands in the same epoch.
  void observe_all(std::span<const double> values);
  // Rotates the window forward by `epochs` epochs (manual mode's only
  // clock; also usable in timed mode to force expiry).
  void advance(std::size_t epochs = 1);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::quiet_NaN();
    double max = std::numeric_limits<double>::quiet_NaN();
    double p50 = std::numeric_limits<double>::quiet_NaN();
    double p90 = std::numeric_limits<double>::quiet_NaN();
    double p95 = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
    // Events per second over the covered span; NaN in manual mode (no
    // wall-clock to divide by).
    double rate_hz = std::numeric_limits<double>::quiet_NaN();
    double span_seconds = 0.0;
  };
  Snapshot snapshot() const;

  // Folds the other window's live samples into *this*'s current epoch.
  // Collapsing (rather than aligning epochs) keeps the merge commutative
  // and exact on counts/sums/buckets, so merging sweep shards in grid
  // order yields a schedule-independent result. Safe against concurrent
  // observers of either side; self-merge is a no-op-safe double count
  // like Histogram's.
  void merge_from(const WindowedHistogram& other);
  void reset();

  double epoch_seconds() const { return epoch_seconds_; }
  std::size_t num_epochs() const { return num_epochs_; }

 private:
  struct Epoch {
    bool live = false;
    std::uint64_t index = 0;  // absolute epoch number
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::vector<std::uint64_t> buckets;  // per-bucket (not cumulative)
  };
  // Aggregate of the live epochs — the lock-free half of merge_from.
  struct Aggregate {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::vector<std::uint64_t> buckets;
  };

  std::uint64_t current_index_locked() const MECSCHED_REQUIRES(mu_);
  Epoch& epoch_for_write_locked(std::uint64_t index) MECSCHED_REQUIRES(mu_);
  static void add(Epoch& e, double v);
  Aggregate aggregate_locked(std::uint64_t now_index) const
      MECSCHED_REQUIRES(mu_);
  Aggregate aggregate() const MECSCHED_EXCLUDES(mu_);
  void fold_locked(const Aggregate& agg) MECSCHED_REQUIRES(mu_);

  mutable Mutex mu_;
  double epoch_seconds_;   // immutable after construction
  std::size_t num_epochs_;  // immutable after construction
  std::uint64_t manual_offset_ MECSCHED_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point start_ MECSCHED_GUARDED_BY(mu_) =
      std::chrono::steady_clock::now();
  std::vector<Epoch> ring_ MECSCHED_GUARDED_BY(mu_);
};

// Rolling event rate over the last `num_epochs * epoch_seconds` seconds —
// a WindowedHistogram stripped to counts, for "decisions per second"
// style families where the value distribution is irrelevant.
class RateWindow {
 public:
  explicit RateWindow(double epoch_seconds = 1.0, std::size_t num_epochs = 60);

  void record(std::uint64_t n = 1);
  void advance(std::size_t epochs = 1);

  struct Snapshot {
    std::uint64_t count = 0;
    double rate_hz = std::numeric_limits<double>::quiet_NaN();
    double span_seconds = 0.0;
  };
  Snapshot snapshot() const;

  // Adds the other window's live count into *this*'s current epoch (same
  // collapse semantics as WindowedHistogram::merge_from).
  void merge_from(const RateWindow& other);
  void reset();

  double epoch_seconds() const { return epoch_seconds_; }
  std::size_t num_epochs() const { return num_epochs_; }

 private:
  struct Epoch {
    bool live = false;
    std::uint64_t index = 0;
    std::uint64_t count = 0;
  };

  std::uint64_t current_index_locked() const MECSCHED_REQUIRES(mu_);
  std::uint64_t live_count_locked(std::uint64_t now_index) const
      MECSCHED_REQUIRES(mu_);

  mutable Mutex mu_;
  double epoch_seconds_;   // immutable after construction
  std::size_t num_epochs_;  // immutable after construction
  std::uint64_t manual_offset_ MECSCHED_GUARDED_BY(mu_) = 0;
  std::chrono::steady_clock::time_point start_ MECSCHED_GUARDED_BY(mu_) =
      std::chrono::steady_clock::now();
  std::vector<Epoch> ring_ MECSCHED_GUARDED_BY(mu_);
};

}  // namespace mecsched::obs
