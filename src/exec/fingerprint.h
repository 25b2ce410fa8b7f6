// Canonical hashing of HTA instances, for digests that must be stable
// across runs and worker schedules (serve::DecisionLog::digest, the
// `mecsched chaos` per-cell digest).
//
// The fingerprint hashes exactly the quantities the assignment algorithms
// read — per-placement latencies/energies, deadlines, resource demands,
// cluster membership and the device/station capacities — so two instances
// with the same fingerprint are solver-indistinguishable.
#pragma once

#include <cstdint>
#include <string>

#include "assign/hta_instance.h"

namespace mecsched::exec {

// Canonical 64-bit fingerprint of everything the assigners consume.
std::uint64_t fingerprint(const assign::HtaInstance& instance);

// Order-dependent hash combiners for building digests (e.g. mixing an
// algorithm name into an instance fingerprint).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);
std::uint64_t hash_string(const std::string& s);

}  // namespace mecsched::exec
