// Deterministic random-number generation for workloads and tests.
//
// Every stochastic component in mecsched draws from an explicitly seeded
// `Rng`, so a scenario is fully reproducible from (seed, parameters). The
// class wraps std::mt19937_64 with the handful of distributions the
// workload generator needs; fresh independent streams can be forked so
// that adding a new consumer does not perturb existing draws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace mecsched {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  // Exponentially distributed double with the given mean (> 0).
  double exponential(double mean);

  // Picks an index in [0, weights.size()) with probability proportional to
  // weights[i]. Weights must be non-negative and not all zero.
  std::size_t weighted_index(const std::vector<double>& weights);

  // A random subset of {0, ..., n-1} of exactly `k` elements (k <= n),
  // uniformly over all such subsets, in increasing order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  // Forks an independent stream; the child's sequence is decorrelated from
  // the parent's by mixing the fork index into the seed.
  Rng fork(std::uint64_t stream) const;

  // Derives the substream keyed by `key` — the grid-sharding primitive of
  // the parallel sweep runner. The child depends only on (seed, key),
  // never on this engine's draw position or on how many other substreams
  // were derived, so sweep cell `key` generates identical data whether the
  // grid runs on 1 worker or N (regression-tested in rng_test.cpp).
  Rng substream(std::uint64_t key) const;

  // The seed substream(key) is built from; callers that persist or log a
  // cell's seed use this.
  std::uint64_t substream_seed(std::uint64_t key) const;

  std::mt19937_64& engine() { return engine_; }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace mecsched
