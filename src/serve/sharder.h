// Sharder: builds one epoch's topology and splits its batch into
// base-station neighborhoods.
//
// The paper's LP-HTA already decomposes by cluster (Sec. III.A treats each
// cluster separately), and LpHta::assign loops over the clusters of
// whatever topology it is given. The sharder builds that topology once per
// epoch — the devices the batch names and every cell, priced against what
// running work holds — and splits the batch into num_shards contiguous
// blocks of stations ("neighborhoods") by the issuer's *current* cell.
// Each shard is a task list with ids local to the one topology, which the
// solvers consume unchanged. Shards are then solvable in parallel —
// results are gathered and applied in shard order, which keeps the
// decision log byte-identical at any worker count.
//
// A task only ever spends the capacity of its issuer and of its issuer's
// cell, and both belong to the task's own shard; a data owner in another
// neighborhood is read for its radio and cell alone. So shards share the
// topology without sharing a ledger entry, and a cross-neighborhood fetch
// is priced exactly as the universe topology prices it.
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

// One shard's cut of an epoch: the tasks of one station block.
struct ShardProblem {
  std::size_t shard = 0;
  std::vector<mec::Task> tasks;          // user/owner are epoch-topology
                                         // ids; the solve moves them out
  std::vector<std::size_t> batch_index;  // local task -> batch position
};

// One epoch's cut: the topology every shard solves against, and the shards.
struct EpochProblem {
  mec::Topology topology;             // roster devices, every cell
  std::vector<std::size_t> roster;    // local device -> universe id
  std::vector<ShardProblem> shards;   // in shard order, none empty
};

class Sharder {
 public:
  // Throws ModelError for num_shards == 0. More shards than stations is
  // clamped (each shard needs at least one cell).
  Sharder(const mec::Topology& universe, ShardingOptions options);

  std::size_t num_shards() const { return num_shards_; }
  std::size_t shard_of_station(std::size_t station) const;

  // Cuts one epoch. The topology's devices are the ones the batch names —
  // issuers and external owners — in ascending universe id, as they are
  // now (Population::device); its cells are the universe's, with their
  // universe ids. Devices no task names stay out: no solver reads them,
  // and local ids stay monotone in universe ids, so the LP rows and
  // decisions are those of a roster holding every up device.
  // device_used and station_used hold the capacity that running work
  // takes (Reconciler::settle), by universe id; a roster device and an up
  // cell get max(0, capacity - used), a dark cell 0.
  // Each task goes to the shard of its issuer's current cell, in batch
  // order. batch holds records made by make_batch_task from `population`
  // as it is now; each shard task's deadline is its record's residual_s
  // (the slack left after waiting). Shards with no tasks are omitted.
  // Every batch issuer — and every external owner — must be up (the
  // daemon triages the rest away before building). Not const: the roster
  // scratch below is reused from call to call, so one Sharder builds on
  // one thread at a time.
  EpochProblem build(const Population& population,
                     const std::vector<double>& device_used,
                     const std::vector<double>& station_used,
                     const std::vector<BatchTask>& batch);

 private:
  const mec::Topology* universe_;
  std::size_t num_shards_;
  std::vector<std::size_t> station_shard_;  // station -> shard
  // Roster scratch over the universe ids: one bit per device the batch
  // names, all clear between builds, and per 64-id word the number of
  // roster devices whose ids lie below that word.
  std::vector<std::uint64_t> named_;
  std::vector<std::size_t> rank_;
};

}  // namespace mecsched::serve
