// Analytic latency/energy model (Sec. II.A–II.C).
//
// For a task T_ij and each of the three candidate subsystems
//   l = 1 (the issuing mobile device), l = 2 (its base station),
//   l = 3 (the remote cloud)
// this computes t_ijl = t^(C) + t^(R) and E_ijl per the paper's formulas.
// Every energy/latency figure in the repository flows through this class:
// the assignment algorithms consume its output and never re-derive costs,
// so the model is unit-testable in isolation and the discrete-event
// simulator can validate it independently.
//
// evaluate(task) is the one pricing routine. The placements share their
// transfer legs (the owner's uplink of β and its backhaul hop, the
// issuer's α uplink, the result downlink); the issuer's β downlink is the
// device's alone and the WAN leg the cloud's. Each leg is priced once, as
// a time whose energy is power × that time, so a task with remote
// external data costs 9 divisions and a local-only task (a DTA partial)
// 6, with the same operations in the same order as pricing each
// placement on its own.
#pragma once

#include <array>
#include <string>

#include "mec/task.h"
#include "mec/topology.h"

namespace mecsched::mec {

// The subsystem executing a task; values match the paper's l ∈ {1,2,3}.
enum class Placement : int { kLocal = 0, kEdge = 1, kCloud = 2 };

inline constexpr std::array<Placement, 3> kAllPlacements = {
    Placement::kLocal, Placement::kEdge, Placement::kCloud};

std::string to_string(Placement p);

struct CostEntry {
  double compute_s = 0.0;   // t^(C)
  double transfer_s = 0.0;  // t^(R)
  double energy_j = 0.0;    // E_ijl (total, Eq. 5)

  double latency_s() const { return compute_s + transfer_s; }
};

// Costs for all three placements of one task.
struct TaskCosts {
  std::array<CostEntry, 3> by_placement;

  const CostEntry& at(Placement p) const {
    return by_placement[static_cast<std::size_t>(p)];
  }
  double latency(Placement p) const { return at(p).latency_s(); }
  double energy(Placement p) const { return at(p).energy_j; }
};

class CostModel {
 public:
  explicit CostModel(const Topology& topology) : topo_(&topology) {}

  // All three placements at once: the one pricing routine. Each shared
  // transfer leg is priced once and the entries are summed from them.
  TaskCosts evaluate(const Task& task) const;

  // evaluate(task).at(p); throws ModelError for an unknown placement.
  CostEntry evaluate(const Task& task, Placement p) const;

  // --- primitive transfer costs (exposed for the simulator and tests) ---

  // Device -> base station upload: time and radio energy e_i^(T)(X).
  double upload_seconds(std::size_t device, double bytes) const;
  double upload_energy(std::size_t device, double bytes) const;
  // Base station -> device download: time and radio energy e_i^(R)(X).
  double download_seconds(std::size_t device, double bytes) const;
  double download_energy(std::size_t device, double bytes) const;
  // Inter-base-station backhaul: t_{B,B}(X) and e_{B,B}(X).
  double bs_to_bs_seconds(double bytes) const;
  double bs_to_bs_energy(double bytes) const;
  // Base station <-> cloud WAN: t_{B,C}(X) and e_{B,C}(X).
  double bs_to_cloud_seconds(double bytes) const;
  double bs_to_cloud_energy(double bytes) const;

 private:
  const Topology* topo_;
};

}  // namespace mecsched::mec
