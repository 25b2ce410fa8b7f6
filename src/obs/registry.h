// Process-wide metric registry: counters, gauges and histograms.
//
// The registry is the measurement substrate every layer reports into —
// solver iteration counts, repair moves, controller epoch tallies, span
// durations. Design goals, in order:
//
//   * writes are cheap enough for per-solve / per-epoch granularity
//     (counters and gauges are single relaxed atomics; histograms take one
//     uncontended mutex),
//   * references returned by counter()/gauge()/histogram() stay valid for
//     the life of the process — reset() zeroes values but never removes
//     entries, so call sites may cache `static Counter& c = ...`,
//   * everything is thread-safe: the LP-HTA cluster workers and any future
//     sharded controller write concurrently.
//
// Exporters (Prometheus text, summary table) live in obs/export.h; the
// structured event tracer lives in obs/tracer.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/thread_annotations.h"

namespace mecsched::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value (residuals, gaps, sizes).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Distribution of observed values: a streaming Summary (count/mean/var/
// min/max) plus fixed log10 buckets spanning 1e-9 .. 1e9. The bucket grid
// is deliberately static — durations in seconds, iteration counts and
// energy all land inside it, and a fixed grid keeps Prometheus export
// trivial.
class Histogram {
 public:
  // Upper bounds of the finite buckets; an implicit +Inf bucket follows.
  static const std::vector<double>& bucket_bounds();

  void observe(double v);
  // observe() of each value in order, under one lock acquisition.
  void observe_all(std::span<const double> values);

  Summary summary() const;
  // Cumulative counts per finite bucket (Prometheus `le` semantics);
  // summary().count() is the +Inf entry.
  std::vector<std::uint64_t> cumulative_buckets() const;
  // Approximate quantile (q in [0,1]) from the bucket counts: linear
  // interpolation inside the selected bucket, clamped to the observed
  // min/max. NaN when empty. The log10 grid makes this a ~10% estimate —
  // good enough for p50/p90/p99 summary columns, not for assertions on
  // exact values.
  double approx_percentile(double q) const;
  void reset();

 private:
  void observe_locked(double v) MECSCHED_REQUIRES(mu_);

  mutable Mutex mu_;
  Summary summary_ MECSCHED_GUARDED_BY(mu_);
  // sized lazily on first observe
  std::vector<std::uint64_t> buckets_ MECSCHED_GUARDED_BY(mu_);
};

class Registry {
 public:
  // The process-wide instance all instrumentation reports into.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Finds or creates the named metric. Names are dot-separated lower-case
  // paths ("lp.simplex.pivots"); exporters sanitize them per format. A
  // name registers as exactly one kind — reusing it as another kind
  // throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Zeroes every metric in place. Entries (and references to them) remain
  // valid — callers caching references across reset() keep working.
  void reset();

  // Stable-ordered snapshots for the exporters.
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  // mu_ guards the name→entry maps only; the metric objects themselves
  // are thread-safe and are handed out as long-lived references.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MECSCHED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MECSCHED_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MECSCHED_GUARDED_BY(mu_);
};

}  // namespace mecsched::obs
