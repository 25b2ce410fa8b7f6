// Epoch reconciler: the in-flight ledger of the serve daemon's epoch loop.
//
// Once a task is placed it occupies capacity until its analytic finish
// time. Between epoch boundaries devices leave (depart or fail), migrate
// and stations go dark; the reconciler classifies what that does to each
// in-flight task:
//
//   * issuer leaves        -> lost: nobody is left to receive the result;
//   * external owner leaves-> orphaned: the data source is gone mid-fetch,
//                             the task goes back to the waiting room;
//   * issuer migrates      -> an edge/cloud placement is orphaned (the
//                             serving cell changed under it; the delivery
//                             path through the old station is gone), a
//                             local run travels with the device and
//                             survives;
//   * owner migrates       -> survives (the fetch is pinned at start);
//   * station goes down    -> edge/cloud placements issued through that
//                             cell are orphaned; local runs survive.
//
// The entry points are event-agnostic: the serve daemon maps its churn
// and fault events (leave, migrate, station-down) onto them.
//
// Interruption is at whole-run granularity, matching the analytic
// execution model: a task that finished before the event's timestamp is
// unaffected even if collection happens later.
//
// Churn mostly strikes devices with nothing in flight, so the reconciler
// counts, per device, the running tasks a leave could interrupt (those
// naming it as issuer or owner) and those a migrate could (those it issued
// to the edge or cloud). A device event on a device whose count is zero is
// answered without touching the running set; any other event compacts the
// set in place, so running() stays in start order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "assign/assignment.h"

namespace mecsched::control {

// One placed task occupying capacity somewhere. The two narrow fields
// come last, so an entry takes 56 bytes of the running list, not 64.
struct RunningTask {
  std::size_t id = 0;  // caller-scoped task id
  double finish_s = 0.0;
  std::size_t issuer = 0;
  std::size_t station = 0;  // issuer's serving cell at decision time
  double resource = 0.0;
  std::size_t owner = 0;  // external data owner (valid if has_external)
  assign::Decision where = assign::Decision::kCancelled;
  bool has_external = false;
};

// Adds what t holds at `now`, if it is still running then: its resource
// on the issuing device for a local placement, on the issuer's cell for an
// edge placement (the cloud is uncapacitated).
inline void charge(const RunningTask& t, double now,
                   std::vector<double>& device_used,
                   std::vector<double>& station_used) {
  if (t.finish_s <= now) return;
  if (t.where == assign::Decision::kLocal) {
    device_used[t.issuer] += t.resource;
  } else if (t.where == assign::Decision::kEdge) {
    station_used[t.station] += t.resource;
  }
}

// Tasks an event tore out of the running set, each list in start order.
struct Interruptions {
  std::vector<std::size_t> lost_issuer;  // terminal
  std::vector<std::size_t> orphaned;     // re-admittable
};

class Reconciler {
 public:
  void start(const RunningTask& t);

  // `device` left (departed or failed) at time t: tasks it issued are
  // lost, tasks whose external data it owned are orphaned.
  Interruptions device_left(std::size_t device, double t);
  // `device` re-attached to another cell at time t: its edge/cloud work
  // is orphaned.
  Interruptions device_migrated(std::size_t device, double t);
  // `station` went down at time t: edge/cloud work issued through it is
  // orphaned.
  Interruptions station_down(std::size_t station, double t);

  // Room for n running tasks, so that starts do not regrow the list.
  void reserve(std::size_t n) { running_.reserve(n); }

  // One sweep in start order: removes the tasks with finish_s <= now and
  // returns how many, and charges each task still running to the capacity
  // it holds (see charge). Callers subtract the sums from the base
  // capacities to price an epoch against the residual system; work started
  // later at the same `now` is charged by the caller, after the sweep, so
  // each sum keeps start order.
  std::size_t settle(double now, std::vector<double>& device_used,
                     std::vector<double>& station_used);

  const std::vector<RunningTask>& running() const { return running_; }

 private:
  // Running tasks a churn event on one device could interrupt. 32 bits
  // each keep the index at 8 bytes a device (it is read at random on
  // every start and end); no device names 2^32 running tasks.
  struct Refs {
    std::uint32_t named = 0;      // issuer or owner: a leave (a task owning
                                  // its own external data counts twice)
    std::uint32_t offloaded = 0;  // edge/cloud issuer: a migrate
  };
  enum class Cause { kDeviceLeft, kDeviceMigrated, kStationDown };

  // Removes the tasks still running at t that `cause` on `target`
  // interrupts.
  Interruptions sweep(Cause cause, std::size_t target, double t);

  // Count t in (retain) or out of (release) its devices' refs_.
  void retain(const RunningTask& t);
  void release(const RunningTask& t);

  std::vector<RunningTask> running_;
  std::vector<Refs> refs_;  // by device; grows on demand, past the end = 0
};

}  // namespace mecsched::control
