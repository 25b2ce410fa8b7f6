#include "serve/sharder.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>

#include "common/error.h"

namespace mecsched::serve {

BatchTask make_batch_task(std::size_t id, const mec::Task& task,
                          std::size_t attempts, double arrival_s,
                          double residual_s, const Population& population) {
  const bool has_external = task.external_bytes > 0.0;
  return BatchTask{id,
                   task.id,
                   population.station(task.id.user),
                   task.external_owner,
                   has_external ? population.station(task.external_owner) : 0,
                   has_external,
                   task.resource,
                   attempts,
                   arrival_s,
                   residual_s,
                   &task};
}

EpochProblem Sharder::build(const Population& population,
                            const std::vector<double>& device_used,
                            const std::vector<double>& station_used,
                            const std::vector<BatchTask>& batch) {
  const std::size_t nd = universe_->num_devices();
  const std::size_t ns = universe_->num_base_stations();
  MECSCHED_REQUIRE(device_used.size() == nd && station_used.size() == ns,
                   "usage vectors must match the universe topology");

  // Every precondition is checked here, before any roster bit is set, so
  // a failed build leaves the roster scratch clean.
  for (const BatchTask& b : batch) {
    MECSCHED_REQUIRE(population.up(b.task_id.user),
                     "batch task issuer " + std::to_string(b.task_id.user) +
                         " is not up (triage must run first)");
    MECSCHED_REQUIRE(!b.has_external || population.up(b.owner),
                     "external owner " + std::to_string(b.owner) +
                         " is not up (triage must run first)");
  }

  // Device roster: the issuers and external owners the batch names, in
  // universe-id order; a device no task names would never enter a solver,
  // so it stays out. Each named device sets its bit, so the set bits in
  // ascending order are the roster, and a device's local id is its rank
  // among them.
  std::size_t lo = named_.size();  // the touched words: [lo, hi)
  std::size_t hi = 0;
  const auto name = [&](std::size_t g) {
    const std::size_t w = g / 64;
    named_[w] |= std::uint64_t{1} << (g % 64);
    lo = std::min(lo, w);
    hi = std::max(hi, w + 1);
  };
  for (const BatchTask& b : batch) {
    name(b.task_id.user);
    if (b.has_external) name(b.owner);
  }
  std::vector<std::size_t> roster;
  roster.reserve(2 * batch.size());
  for (std::size_t w = lo; w < hi; ++w) {
    rank_[w] = roster.size();
    for (std::uint64_t bits = named_[w]; bits != 0; bits &= bits - 1) {
      roster.push_back(w * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  const auto local_id = [&](std::size_t g) {
    const std::uint64_t below =
        named_[g / 64] & ((std::uint64_t{1} << (g % 64)) - 1);
    return rank_[g / 64] + static_cast<std::size_t>(std::popcount(below));
  };

  // The tasks, in batch order, with user and owner as roster ids.
  std::vector<mec::Task> tasks;
  tasks.reserve(batch.size());
  for (const BatchTask& b : batch) {
    mec::Task& t = tasks.emplace_back(*b.task);
    t.deadline_s = b.residual_s;
    t.id.user = local_id(b.task_id.user);
    t.external_owner = b.has_external ? local_id(b.owner) : 0;
  }
  for (std::size_t w = lo; w < hi; ++w) named_[w] = 0;

  // The roster's universe ids ascend with gaps too wide for the
  // hardware prefetcher, so the gather asks for each device's entries a
  // few roster slots ahead.
  constexpr std::size_t kAhead = 8;
  const auto prefetch = [&](std::size_t local) {
    const std::size_t g = roster[local];
    __builtin_prefetch(&population.device(g));
    __builtin_prefetch(&device_used[g]);
  };
  for (std::size_t local = 0; local < std::min(kAhead, roster.size());
       ++local) {
    prefetch(local);
  }
  std::vector<mec::Device> devices;
  devices.reserve(roster.size());
  for (std::size_t local = 0; local < roster.size(); ++local) {
    if (local + kAhead < roster.size()) prefetch(local + kAhead);
    const std::size_t g = roster[local];
    // Current cell and radio rates (a faded link stretches every
    // transfer through it), and the universe's capacity less what
    // running work holds.
    mec::Device d = population.device(g);
    d.id = local;
    d.max_resource = std::max(0.0, d.max_resource - device_used[g]);
    devices.push_back(d);
  }

  // Every cell, with its universe id; a dark cell carries no capacity.
  std::vector<mec::BaseStation> stations;
  stations.reserve(ns);
  for (std::size_t b = 0; b < ns; ++b) {
    mec::BaseStation bs = universe_->base_station(b);
    bs.max_resource = population.station_up(b)
                          ? std::max(0.0, bs.max_resource - station_used[b])
                          : 0.0;
    stations.push_back(bs);
  }

  return EpochProblem{mec::Topology(std::move(devices), std::move(stations),
                                    universe_->params()),
                      std::move(roster), std::move(tasks)};
}

}  // namespace mecsched::serve
