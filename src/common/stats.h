// Streaming summary statistics and small helpers used by the metrics and
// benchmark layers.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace mecsched {

// Online accumulator (Welford) for the mean plus min/max/sum. Cheap to
// copy.
//
// Edge-case contract (tested in stats_test.cpp): with zero samples, mean,
// min and max are all quiet NaN — "no data" is explicit, never a
// fabricated 0 or ±infinity. With one sample, mean/min/max are that
// sample. sum() of an empty summary is 0 (the additive identity is
// meaningful).
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? nan_() : mean_; }
  double min() const { return count_ == 0 ? nan_() : min_; }
  double max() const { return count_ == 0 ? nan_() : max_; }

 private:
  static double nan_() { return std::numeric_limits<double>::quiet_NaN(); }

  std::size_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Percentile over a copy of the data (linear interpolation between ranks).
// `q` is clamped to [0, 1]. Edge cases are part of the contract: empty
// input returns quiet NaN (no data, no answer); a single sample is every
// percentile of itself.
double percentile(std::vector<double> values, double q);

}  // namespace mecsched
