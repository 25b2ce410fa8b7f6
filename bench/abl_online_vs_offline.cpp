// Ablation — online (epoch-batched) LP-HTA vs the clairvoyant offline
// assignment on Poisson task streams: the price of not knowing the future,
// as a function of arrival rate. The online side is the serve daemon's
// epoch loop (serve/stream.h) with no faults and one admission per task.
//
// The offline plan packs all tasks into the capacities at once, so it is
// no bound on the online energy (online often spends less: it runs fewer
// tasks at a time). The light-load check instead compares online energy
// with a true lower bound: the sum, over the tasks online completed, of
// each task's cheapest deadline-meeting placement energy in the offline
// instance. An online placement meets a residual deadline on residual
// capacities, both of which only shrink the feasible set, so no online
// plan can spend less.
#include <algorithm>
#include <iostream>
#include <limits>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "bench/bench_common.h"
#include "metrics/series.h"
#include "serve/stream.h"
#include "workload/arrivals.h"

int main() {
  const mecsched::bench::ObsSession obs_session("abl_online_vs_offline");
  using namespace mecsched;
  bench::print_header("Ablation", "online vs offline LP-HTA",
                      "200 tasks, Poisson arrivals 5..80 /s, epoch 0.5 s, "
                      "50 devices, 5 stations");

  metrics::SeriesCollector series(
      "arrivals/s", {"offline-energy", "online-energy", "online-energy-lb",
                     "online-cancelled", "mean-response-s", "epochs"});

  bool lower_bound_holds = true;

  for (double rate : {5.0, 10.0, 20.0, 40.0, 80.0}) {
    for (std::uint64_t rep = 1; rep <= bench::kRepetitions; ++rep) {
      workload::ArrivalConfig cfg;
      cfg.scenario.num_devices = bench::kDevices;
      cfg.scenario.num_base_stations = bench::kStations;
      cfg.scenario.num_tasks = 200;
      cfg.scenario.seed = rep * 613 + static_cast<std::uint64_t>(rate);
      cfg.arrival_rate_per_s = rate;
      const auto s = workload::make_timed_scenario(cfg);

      serve::ServeOptions online_opts;
      online_opts.readmission.max_attempts = 1;
      const serve::StreamResult online =
          serve::run_stream(online_opts, s.topology, s.tasks);

      std::vector<mec::Task> all;
      all.reserve(s.tasks.size());
      for (const auto& t : s.tasks) all.push_back(t.task);
      const assign::HtaInstance inst(s.topology, all);
      const auto offline = assign::evaluate(inst, assign::LpHta().assign(inst));

      double lower_bound = 0.0;
      for (std::size_t t = 0; t < inst.num_tasks(); ++t) {
        if (!online.outcomes[t].completed()) continue;
        double cheapest = std::numeric_limits<double>::infinity();
        for (const mec::Placement p : mec::kAllPlacements) {
          if (inst.meets_deadline(t, p)) {
            cheapest = std::min(cheapest, inst.energy(t, p));
          }
        }
        lower_bound += cheapest;
      }
      lower_bound_holds =
          lower_bound_holds &&
          lower_bound <= online.serve.total_energy_j * (1.0 + 1e-9);

      series.add(rate, "offline-energy", offline.total_energy_j);
      series.add(rate, "online-energy", online.serve.total_energy_j);
      series.add(rate, "online-energy-lb", lower_bound);
      series.add(rate, "online-cancelled",
                 static_cast<double>(online.unsatisfied()));
      series.add(rate, "mean-response-s", online.mean_response_s);
      series.add(rate, "epochs",
                 static_cast<double>(online.serve.decide_epochs));
    }
  }

  bench::print_table(series, 2);
  bench::maybe_write_csv(series, "abl_online_vs_offline");

  bench::ShapeChecker check;
  const auto at = [&](double x, const char* s) { return series.mean(x, s); };
  check.expect(at(5, "online-cancelled") <= at(80, "online-cancelled") + 1e-9,
               "higher pressure cannot reduce cancellations");
  check.expect(lower_bound_holds,
               "online energy never undercuts its per-task lower bound");
  check.expect(at(5, "online-energy") <= 1.05 * at(5, "online-energy-lb"),
               "under light load online spends within 5% of the lower "
               "bound");
  check.expect(at(80, "epochs") < at(5, "epochs"),
               "denser arrivals compress into fewer epochs");
  return check.exit_code();
}
