#include "obs/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace mecsched::obs {

const std::vector<double>& Histogram::bucket_bounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (int e = -9; e <= 9; ++e) b.push_back(std::pow(10.0, e));
    return b;
  }();
  return bounds;
}

void Histogram::observe(double v) {
  const MutexLock lock(mu_);
  observe_locked(v);
}

void Histogram::observe_all(std::span<const double> values) {
  const MutexLock lock(mu_);
  for (const double v : values) observe_locked(v);
}

void Histogram::observe_locked(double v) {
  summary_.add(v);
  if (buckets_.empty()) buckets_.assign(bucket_bounds().size(), 0);
  // NaN is kept out of the ordered bucket search; it lands only in the
  // implicit +Inf bucket (= summary count), as does any v above the last
  // finite bound.
  if (std::isnan(v)) return;
  const auto& bounds = bucket_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  if (it != bounds.end()) {
    ++buckets_[static_cast<std::size_t>(it - bounds.begin())];
  }
}

Summary Histogram::summary() const {
  const MutexLock lock(mu_);
  return summary_;
}

std::vector<std::uint64_t> Histogram::cumulative_buckets() const {
  const MutexLock lock(mu_);
  std::vector<std::uint64_t> out(bucket_bounds().size(), 0);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i < buckets_.size()) acc += buckets_[i];
    out[i] = acc;
  }
  return out;
}

void Histogram::reset() {
  const MutexLock lock(mu_);
  summary_ = Summary{};
  buckets_.clear();
}

double Histogram::approx_percentile(double q) const {
  const MutexLock lock(mu_);
  const std::uint64_t total = summary_.count();
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const std::vector<double>& bounds = bucket_bounds();
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  // Walk the buckets until the cumulative count reaches the target rank.
  std::uint64_t prev = 0;
  std::size_t i = 0;
  for (; i < buckets_.size() && prev + buckets_[i] < target; ++i) {
    prev += buckets_[i];
  }
  double value;
  if (i == buckets_.size()) {
    // Target rank sits in the implicit +Inf bucket (NaNs / huge values);
    // the observed max is the only estimate left, the last finite bound
    // the fallback.
    value = std::isnan(summary_.max()) ? bounds.back() : summary_.max();
  } else {
    const double upper = bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const std::uint64_t in_bucket = buckets_[i];
    const double frac =
        in_bucket == 0 ? 1.0
                       : static_cast<double>(target - prev) /
                             static_cast<double>(in_bucket);
    value = lower + frac * (upper - lower);
  }
  if (!std::isnan(summary_.min())) value = std::max(value, summary_.min());
  if (!std::isnan(summary_.max())) value = std::min(value, summary_.max());
  return value;
}

Registry& Registry::global() {
  // Metric references must outlive static-destruction order.
  // lint:allow-naked-new -- intentionally leaked singleton.
  static Registry* instance = new Registry();
  return *instance;
}

namespace {

// One name maps to one metric kind; a kind collision is a programming
// error worth failing loudly on.
template <typename Map>
void require_unregistered(const Map& m, const std::string& name,
                          const char* other_kind) {
  MECSCHED_REQUIRE(m.find(name) == m.end(),
                   "obs metric '" + name + "' already registered as a " +
                       other_kind);
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  const MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    require_unregistered(gauges_, name, "gauge");
    require_unregistered(histograms_, name, "histogram");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  const MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    require_unregistered(counters_, name, "counter");
    require_unregistered(histograms_, name, "histogram");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name) {
  const MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    require_unregistered(counters_, name, "counter");
    require_unregistered(gauges_, name, "gauge");
    it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

void Registry::reset() {
  const MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  const MutexLock lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  const MutexLock lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Registry::histograms()
    const {
  const MutexLock lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

}  // namespace mecsched::obs
