// Sharder: partitions the city into base-station neighborhoods and cuts
// one HtaInstance-sized problem per shard per epoch.
//
// The paper's LP-HTA already decomposes by cluster (Sec. III.A treats each
// cluster separately); the sharder lifts that one level: stations are
// split into num_shards contiguous blocks ("neighborhoods"), each epoch
// batch is routed to the shard of its issuer's *current* cell, and every
// shard becomes an independent topology + task list with dense local ids
// that the solvers consume unchanged. Shards are then solvable in
// parallel — results are gathered and applied in shard order, which keeps
// the decision log byte-identical at any worker count.
//
// Shard-boundary data sharing is handled with *halo* entries: a task
// whose external owner sits in another shard gets a zero-capacity copy of
// the owner device (and, when needed, the owner's cell as a zero-capacity
// halo station) so the cost model prices the cross-neighborhood fetch
// exactly as the universe topology would. Halo entries carry no capacity,
// so the owning shard's ledger is never double-spent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mec/task.h"
#include "mec/topology.h"
#include "serve/population.h"

namespace mecsched::serve {

struct ShardingOptions {
  std::size_t num_shards = 1;  // clamped to the station count at build
};

// One task of an epoch batch, as triage reads it once from its trace
// event and the population: what routing, roster naming and apply need,
// so that none of them goes back to the event or the population.
struct BatchTask {
  std::size_t id = 0;               // the arrival's ordinal in the trace
  mec::TaskId task_id{};            // global ids; task_id.user issues it
  std::size_t station = 0;          // the issuer's current cell
  std::size_t owner = 0;            // the task's external_owner
  std::size_t owner_station = 0;    // its current cell (has_external only)
  bool has_external = false;        // external_bytes > 0
  double resource = 0.0;
  std::size_t attempts = 0;         // admissions consumed, this one included
  double arrival_s = 0.0;           // admission time on the virtual clock
  double residual_s = 0.0;          // deadline left: the shard's deadline_s
  const mec::Task* task = nullptr;  // as issued, for the shard's copy
};

// The record of `task`, which arrived at arrival_s as arrival `id`, as the
// population is now.
BatchTask make_batch_task(std::size_t id, const mec::Task& task,
                          std::size_t attempts, double arrival_s,
                          double residual_s, const Population& population);

// One shard's cut of an epoch: a self-contained HTA problem.
struct ShardProblem {
  std::size_t shard = 0;
  mec::Topology topology;  // local dense ids, residual capacities
  std::vector<mec::Task> tasks;          // user/owner remapped to local ids;
                                         // the solve moves them out
  std::vector<std::size_t> batch_index;  // local task -> batch position
  std::vector<std::size_t> device_global;  // local device -> universe id
  std::size_t halo_devices = 0;          // trailing zero-capacity entries
};

class Sharder {
 public:
  // Throws ModelError for num_shards == 0. More shards than stations is
  // clamped (each shard needs at least one cell).
  Sharder(const mec::Topology& universe, ShardingOptions options);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t shard_of_station(std::size_t station) const;

  // Cuts one epoch: routes each batch task to its issuer's shard and
  // builds one topology per shard from the devices its tasks name — the
  // issuers and in-shard external owners in ascending universe id, as
  // they are now (Population::device) with their residual capacities,
  // then the halo owners — plus the shard's cells (zero capacity
  // while down) and any halo cells. Devices no task names stay out: no solver
  // reads them, and local ids stay monotone in universe ids, so the LP
  // rows and decisions are those of a roster holding every up device of
  // the shard's cells.
  // device_used and station_used hold the capacity that running work
  // takes (Reconciler::settle), by universe id; a core device or an up
  // core cell gets max(0, capacity - used), and only the rosters' core
  // entries of device_used are read.
  // batch holds records made by make_batch_task from `population` as it
  // is now; each shard task's deadline is its record's residual_s (the
  // slack left after waiting). Shards with no tasks are omitted; the returned
  // problems are in shard order. Every batch issuer — and every external
  // owner — must be up (the daemon triages the rest away before
  // building). Not const: the roster scratch below is reused
  // from call to call, so one Sharder builds on one thread at a time.
  std::vector<ShardProblem> build(
      const Population& population,
      const std::vector<double>& device_used,
      const std::vector<double>& station_used,
      const std::vector<BatchTask>& batch);

 private:
  const mec::Topology* universe_;
  std::size_t num_shards_;
  std::vector<std::size_t> station_shard_;  // station -> shard
  // Roster scratch over the 2 * num_devices roster keys (a halo owner's
  // key is offset by num_devices): one bit per key named by the shard
  // being built, all clear between shards, and per 64-key word the number
  // of roster devices whose keys lie below that word.
  std::vector<std::uint64_t> named_;
  std::vector<std::size_t> rank_;
};

}  // namespace mecsched::serve
