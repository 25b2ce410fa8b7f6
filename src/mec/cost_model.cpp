#include "mec/cost_model.h"

#include <algorithm>

#include "common/error.h"
#include "common/units.h"

namespace mecsched::mec {

using units::transfer_seconds;

std::string to_string(Placement p) {
  switch (p) {
    case Placement::kLocal:
      return "local";
    case Placement::kEdge:
      return "edge";
    case Placement::kCloud:
      return "cloud";
  }
  return "unknown";
}

// The three placements share their transfer legs: the owner's uplink of β
// (and, across clusters, its backhaul hop), the issuer's α uplink and the
// result downlink. Each leg is priced once, as a time and the energy of
// that time, and the entries add them up in the paper's order.
TaskCosts CostModel::evaluate(const Task& task) const {
  const Device& dev = topo_->device(task.id.user);
  const SystemParameters& p = topo_->params();
  const double alpha = task.local_bytes;
  const double beta = task.external_bytes;
  const double cycles = task.cycles();
  const double result = task.result_bytes();

  // External data β travels owner -> (owner's BS) [-> issuer's BS]; no
  // external data, or the issuer owning it, moves nothing over the radio.
  double fetch_s = 0.0;     // owner's uplink time
  double fetch_j = 0.0;     // e_L^(T)(β)
  double backhaul_s = 0.0;  // t_{B,B}(β) when the owner is in another cluster
  double backhaul_j = 0.0;  // e_{B,B}(β)
  if (beta > 0.0 && task.external_owner != task.id.user) {
    const Device& owner = topo_->device(task.external_owner);
    fetch_s = transfer_seconds(beta, owner.radio.upload_bps);
    fetch_j = owner.radio.tx_power_w * fetch_s;
    if (fetch_s > 0.0 && owner.base_station != dev.base_station) {
      const double hop_s = transfer_seconds(beta, p.bs_to_bs_rate_bps);
      backhaul_s = p.bs_to_bs_latency_s + hop_s;
      backhaul_j = p.bs_to_bs_power_w * hop_s;
    }
  }
  // The issuer's α uplink, and the result η(α+β) back down to it.
  const double alpha_s =
      alpha > 0.0 ? transfer_seconds(alpha, dev.radio.upload_bps) : 0.0;
  const double alpha_j = alpha > 0.0 ? dev.radio.tx_power_w * alpha_s : 0.0;
  const double result_s = transfer_seconds(result, dev.radio.download_bps);
  const double result_j = dev.radio.rx_power_w * result_s;

  TaskCosts out;

  // l = 1: the issuing device computes (Eq. 2) after downloading β (Eq. 4's
  // t^(R)_ij1 / E^(R)_ij1).
  CostEntry& local = out.by_placement[0];
  local.compute_s = cycles / dev.cpu_hz;
  local.energy_j = p.kappa * cycles * dev.cpu_hz * dev.cpu_hz;  // E^(C)_ij1
  if (fetch_s > 0.0) {
    const double down_s = transfer_seconds(beta, dev.radio.download_bps);
    local.transfer_s = fetch_s + down_s + backhaul_s;
    local.energy_j += fetch_j + dev.radio.rx_power_w * down_s;
    local.energy_j += backhaul_j;
  }

  // l = 2: the issuer's base station. α uploads in parallel with the
  // external fetch (max{...} in the paper); base-station compute energy is
  // negligible next to radio energy (Sec. II.A) and omitted, as in the
  // paper.
  CostEntry& edge = out.by_placement[1];
  edge.compute_s = cycles / topo_->base_station(dev.base_station).cpu_hz;
  edge.transfer_s = std::max(fetch_s + backhaul_s, alpha_s) + result_s;
  edge.energy_j = fetch_j + backhaul_j + alpha_j + result_j;

  // l = 3: the remote cloud. α, β and the result cross the WAN
  // (t_{B,C}/e_{B,C}); β needs no backhaul hop.
  const double wan_bytes = alpha + beta + result;
  const double wan_s = transfer_seconds(wan_bytes, p.bs_to_cloud_rate_bps);
  CostEntry& cloud = out.by_placement[2];
  cloud.compute_s = cycles / p.cloud_hz;
  cloud.transfer_s = std::max(fetch_s, alpha_s) + result_s +
                     (wan_bytes <= 0.0 ? 0.0 : p.bs_to_cloud_latency_s + wan_s);
  cloud.energy_j =
      fetch_j + alpha_j + result_j + p.bs_to_cloud_power_w * wan_s;
  return out;
}

CostEntry CostModel::evaluate(const Task& task, Placement p) const {
  if (static_cast<std::size_t>(p) >= kAllPlacements.size()) {
    throw ModelError("unknown placement");
  }
  return evaluate(task).at(p);
}

double CostModel::upload_seconds(std::size_t device, double bytes) const {
  return transfer_seconds(bytes, topo_->device(device).radio.upload_bps);
}

double CostModel::upload_energy(std::size_t device, double bytes) const {
  return topo_->device(device).radio.tx_power_w * upload_seconds(device, bytes);
}

double CostModel::download_seconds(std::size_t device, double bytes) const {
  return transfer_seconds(bytes, topo_->device(device).radio.download_bps);
}

double CostModel::download_energy(std::size_t device, double bytes) const {
  return topo_->device(device).radio.rx_power_w *
         download_seconds(device, bytes);
}

double CostModel::bs_to_bs_seconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  const SystemParameters& p = topo_->params();
  return p.bs_to_bs_latency_s + transfer_seconds(bytes, p.bs_to_bs_rate_bps);
}

double CostModel::bs_to_bs_energy(double bytes) const {
  const SystemParameters& p = topo_->params();
  return p.bs_to_bs_power_w * transfer_seconds(bytes, p.bs_to_bs_rate_bps);
}

double CostModel::bs_to_cloud_seconds(double bytes) const {
  if (bytes <= 0.0) return 0.0;
  const SystemParameters& p = topo_->params();
  return p.bs_to_cloud_latency_s +
         transfer_seconds(bytes, p.bs_to_cloud_rate_bps);
}

double CostModel::bs_to_cloud_energy(double bytes) const {
  const SystemParameters& p = topo_->params();
  return p.bs_to_cloud_power_w * transfer_seconds(bytes, p.bs_to_cloud_rate_bps);
}

}  // namespace mecsched::mec
