// Order-dependent 64-bit hash combiners, for digests that must be stable
// across runs and worker schedules (serve::DecisionLog::digest,
// assign::fingerprint, the `mecsched chaos` per-cell digest).
#pragma once

#include <cstdint>
#include <string>

namespace mecsched::exec {

// Mixes `b` into `a` through splitmix64; mix(a, b) != mix(b, a) in general.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  const auto splitmix64 = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  return splitmix64(a ^ splitmix64(b));
}

inline std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const char c : s) h = mix(h, static_cast<std::uint64_t>(c));
  return mix(h, s.size());
}

}  // namespace mecsched::exec
