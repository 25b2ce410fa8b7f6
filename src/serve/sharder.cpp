#include "serve/sharder.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"

namespace mecsched::serve {
namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

Sharder::Sharder(const mec::Topology& universe, ShardingOptions options)
    : universe_(&universe),
      named_((2 * universe.num_devices() + 63) / 64, 0),
      rank_(named_.size()) {
  MECSCHED_REQUIRE(options.num_shards >= 1, "num_shards must be >= 1");
  const std::size_t ns = universe.num_base_stations();
  num_shards_ = std::min(options.num_shards, ns);
  station_shard_.resize(ns);
  for (std::size_t b = 0; b < ns; ++b) {
    // Contiguous near-equal blocks; monotone in b, so a shard's cells are
    // a station-id range (the "neighborhood").
    station_shard_[b] = b * num_shards_ / ns;
  }
}

std::size_t Sharder::shard_of_station(std::size_t station) const {
  MECSCHED_REQUIRE(station < station_shard_.size(),
                   "station " + std::to_string(station) + " out of range");
  return station_shard_[station];
}

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

std::vector<ShardProblem> Sharder::build(
    const Population& population,
    const std::vector<double>& device_used,
    const std::vector<double>& station_used,
    const std::vector<BatchTask>& batch) {
  const std::size_t nd = universe_->num_devices();
  const std::size_t ns = universe_->num_base_stations();
  MECSCHED_REQUIRE(device_used.size() == nd && station_used.size() == ns,
                   "usage vectors must match the universe topology");

  // Route each task to the shard of its issuer's current cell. Every
  // precondition is checked here, before any roster bit is set, so a
  // failed build leaves the roster scratch clean.
  std::vector<std::vector<std::size_t>> shard_tasks(num_shards_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const BatchTask& b = batch[i];
    MECSCHED_REQUIRE(population.up(b.task_id.user),
                     "batch task issuer " + std::to_string(b.task_id.user) +
                         " is not up (triage must run first)");
    MECSCHED_REQUIRE(!b.has_external || population.up(b.owner),
                     "external owner " + std::to_string(b.owner) +
                         " is not up (triage must run first)");
    shard_tasks[station_shard_[b.station]].push_back(i);
  }

  // Scratch global->local station map, reset per shard.
  std::vector<std::size_t> station_local(ns, kNone);

  std::vector<ShardProblem> problems;
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::vector<std::size_t>& members = shard_tasks[s];
    if (members.empty()) continue;

    // The shard's tasks; user and owner become local ids below.
    std::vector<mec::Task> tasks;
    tasks.reserve(members.size());
    for (const std::size_t i : members) {
      tasks.push_back(*batch[i].task);
      tasks.back().deadline_s = batch[i].residual_s;
    }

    // Device roster: the devices the tasks name. Issuers and in-shard
    // external owners (core) come first, then the owners serving external
    // data from another shard (halo), each part in universe-id order; a
    // device no task names would never enter a solver, so it stays out.
    // Each named device sets the bit of its key — its universe id, offset
    // by nd for a halo owner — so the set bits in ascending order are the
    // roster, and a key's local id is its rank among them. The task's user
    // and owner hold their keys until the ranks are known.
    std::size_t lo = named_.size();  // the touched words: [lo, hi]
    std::size_t hi = 0;
    const auto name = [&](std::size_t key) {
      const std::size_t w = key / 64;
      named_[w] |= std::uint64_t{1} << (key % 64);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    };
    // A halo owner's cell joins the station roster; station_local marks
    // it until the local ids are handed out.
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      const BatchTask& b = batch[members[k]];
      mec::Task& t = tasks[k];
      name(t.id.user);
      if (!b.has_external) {
        t.external_owner = 0;
        continue;
      }
      if (station_shard_[b.owner_station] != s) {
        t.external_owner += nd;
        station_local[b.owner_station] = 0;
      }
      name(t.external_owner);
    }
    std::vector<std::size_t> roster;
    roster.reserve(2 * tasks.size());
    std::size_t core_devices = 0;
    for (std::size_t w = lo; w <= hi; ++w) {
      rank_[w] = roster.size();
      for (std::uint64_t bits = named_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t key =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        roster.push_back(key < nd ? key : key - nd);
        if (key < nd) ++core_devices;
      }
    }
    const auto local_id = [&](std::size_t key) {
      const std::uint64_t below =
          named_[key / 64] & ((std::uint64_t{1} << (key % 64)) - 1);
      return rank_[key / 64] + static_cast<std::size_t>(std::popcount(below));
    };
    for (mec::Task& t : tasks) {
      t.id.user = local_id(t.id.user);
      if (t.external_bytes > 0.0) {
        t.external_owner = local_id(t.external_owner);
      }
    }
    std::fill(named_.begin() + lo, named_.begin() + hi + 1, 0);
    const std::size_t halo_devices = roster.size() - core_devices;

    // Station roster: the shard's own block, then the marked halo cells
    // in ascending id.
    std::vector<std::size_t> stations;
    for (std::size_t b = 0; b < ns; ++b) {
      if (station_shard_[b] == s) stations.push_back(b);
    }
    const std::size_t core_stations = stations.size();
    for (std::size_t b = 0; b < ns; ++b) {
      if (station_local[b] != kNone) stations.push_back(b);
    }
    for (std::size_t local = 0; local < stations.size(); ++local) {
      station_local[stations[local]] = local;
    }

    std::vector<mec::BaseStation> shard_stations;
    shard_stations.reserve(stations.size());
    for (std::size_t local = 0; local < stations.size(); ++local) {
      mec::BaseStation bs = universe_->base_station(stations[local]);
      bs.id = local;
      // Halo cells carry zero capacity: their ledger belongs to the
      // owning shard. So do dark cells.
      bs.max_resource =
          local < core_stations && population.station_up(stations[local])
              ? std::max(0.0, bs.max_resource - station_used[stations[local]])
              : 0.0;
      shard_stations.push_back(bs);
    }

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
    std::vector<mec::Device> shard_dev;
    shard_dev.reserve(roster.size());
    for (std::size_t local = 0; local < roster.size(); ++local) {
      if (local + kAhead < roster.size()) prefetch(local + kAhead);
      const std::size_t g = roster[local];
      // Current cell and radio rates (a faded link stretches every
      // transfer through it), and the universe's capacity less what
      // running work holds.
      mec::Device d = population.device(g);
      d.id = local;
      d.base_station = station_local[d.base_station];
      d.max_resource = local < core_devices
                           ? std::max(0.0, d.max_resource - device_used[g])
                           : 0.0;
      shard_dev.push_back(d);
    }

    // Reset the scratch map for the next shard.
    for (const std::size_t b : stations) station_local[b] = kNone;

    problems.push_back(ShardProblem{
        s,
        mec::Topology(std::move(shard_dev), std::move(shard_stations),
                      universe_->params()),
        std::move(tasks), std::move(members), std::move(roster),
        halo_devices});
  }
  return problems;
}

}  // namespace mecsched::serve
