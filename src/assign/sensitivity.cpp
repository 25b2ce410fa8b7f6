#include "assign/sensitivity.h"

#include <algorithm>

#include "assign/cluster_lp.h"
#include "common/error.h"
#include "lp/simplex.h"

namespace mecsched::assign {

ShadowPrices capacity_shadow_prices(const HtaInstance& instance) {
  const mec::Topology& topo = instance.topology();
  ShadowPrices out;
  out.device.assign(topo.num_devices(), 0.0);
  out.station.assign(topo.num_base_stations(), 0.0);

  const lp::SimplexSolver solver;
  for (std::size_t b = 0; b < topo.num_base_stations(); ++b) {
    const ClusterLp cluster = build_cluster_lp(instance, b);
    if (cluster.active.empty()) continue;
    const lp::Solution s = solver.solve(cluster.problem);
    if (!s.optimal()) {
      throw SolverError("sensitivity: cluster LP not optimal");
    }
    // "<=" rows of a minimization have duals <= 0; the shadow price is the
    // energy saved per unit of extra rhs, i.e. -dual.
    for (std::size_t i = 0; i < cluster.device_ids.size(); ++i) {
      out.device[cluster.device_ids[i]] =
          std::max(0.0, -s.duals[cluster.device_row(i)]);
    }
    out.station[b] = std::max(0.0, -s.duals[cluster.station_row()]);
  }
  return out;
}

}  // namespace mecsched::assign
