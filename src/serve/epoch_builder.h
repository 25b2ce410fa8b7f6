// EpochBuilder: turns one epoch's batch into the problem the solvers take.
//
// The paper's LP-HTA decomposes by cluster (Sec. III.A treats each
// cluster separately), and LpHta::assign loops over the clusters of
// whatever topology it is given. So an epoch is one problem: the builder
// makes one topology — the devices the batch names and every cell,
// priced against what running work holds — and lists the batch's tasks
// on it, in batch order, with ids local to that topology. The daemon
// solves it as one HtaInstance, and LP-HTA's clusters are the only split.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mec/task.h"
#include "mec/topology.h"
#include "serve/population.h"

namespace mecsched::serve {

// One task of an epoch batch, as triage reads it once from its trace
// event and the population: what roster naming and apply need, so that
// neither goes back to the event or the population.
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
  double residual_s = 0.0;          // deadline left: the task's deadline_s
  const mec::Task* task = nullptr;  // as issued, for the problem's copy
};

// The record of `task`, which arrived at arrival_s as arrival `id`, as the
// population is now.
BatchTask make_batch_task(std::size_t id, const mec::Task& task,
                          std::size_t attempts, double arrival_s,
                          double residual_s, const Population& population);

// One epoch's problem: its tasks and the topology they are solved against.
struct EpochProblem {
  mec::Topology topology;             // roster devices, every cell
  std::vector<std::size_t> roster;    // local device -> universe id
  std::vector<mec::Task> tasks;       // batch order, roster ids
};

class EpochBuilder {
 public:
  explicit EpochBuilder(const mec::Topology& universe)
      : universe_(&universe),
        named_((universe.num_devices() + 63) / 64, 0),
        rank_(named_.size()) {}

  // Builds one epoch. The topology's devices are the ones the batch names —
  // issuers and external owners — in ascending universe id, as they are
  // now (Population::device); its cells are the universe's, with their
  // universe ids. Devices no task names stay out: no solver reads them,
  // and local ids stay monotone in universe ids, so the LP rows and
  // decisions are those of a roster holding every up device.
  // device_used and station_used hold the capacity that running work
  // takes (Reconciler::settle), by universe id; a roster device and an up
  // cell get max(0, capacity - used), a dark cell 0. Task i of the problem is
  // batch[i] (made by make_batch_task from `population` as it is now)
  // with its residual_s as deadline. Every batch issuer and external
  // owner must be up (triage parks the rest). Not const: the roster
  // scratch is reused, so one EpochBuilder builds on one thread at a
  // time.
  EpochProblem build(const Population& population,
                     const std::vector<double>& device_used,
                     const std::vector<double>& station_used,
                     const std::vector<BatchTask>& batch);

 private:
  const mec::Topology* universe_;
  // Roster scratch over the universe ids: one bit per device the batch
  // names, all clear between builds, and per 64-id word the number of
  // roster devices whose ids lie below that word.
  std::vector<std::uint64_t> named_;
  std::vector<std::size_t> rank_;
};

}  // namespace mecsched::serve
