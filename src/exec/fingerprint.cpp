#include "exec/fingerprint.h"

#include <bit>

#include "mec/topology.h"

namespace mecsched::exec {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  // Canonicalize -0.0 so numerically equal instances hash equal.
  const double c = v == 0.0 ? 0.0 : v;
  return mix(h, std::bit_cast<std::uint64_t>(c));
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ splitmix64(b));
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const char c : s) h = mix(h, static_cast<std::uint64_t>(c));
  return mix(h, s.size());
}

std::uint64_t fingerprint(const assign::HtaInstance& instance) {
  const mec::Topology& topo = instance.topology();
  std::uint64_t h = mix(topo.num_devices(), topo.num_base_stations());
  for (std::size_t d = 0; d < topo.num_devices(); ++d) {
    const mec::Device& dev = topo.device(d);
    h = mix(h, dev.base_station);
    h = mix_double(h, dev.max_resource);
  }
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    h = mix_double(h, topo.base_station(b).max_resource);
  }
  h = mix(h, instance.num_tasks());
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    const mec::Task& task = instance.task(t);
    h = mix(h, task.id.user);
    h = mix_double(h, task.resource);
    h = mix_double(h, task.deadline_s);
    for (const mec::Placement p : mec::kAllPlacements) {
      h = mix_double(h, instance.latency(t, p));
      h = mix_double(h, instance.energy(t, p));
    }
  }
  return h;
}

}  // namespace mecsched::exec
