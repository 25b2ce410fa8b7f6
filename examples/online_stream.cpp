// Online stream — tasks arrive over time (Poisson) instead of all at once,
// the regime the paper's quasi-static model abstracts away. The serve
// daemon's epoch loop (here with no faults and one admission per task,
// through serve/stream.h) batches arrivals into epochs and re-runs LP-HTA
// against the residual capacities; this example compares it with the
// clairvoyant offline plan and shows the epoch-length trade-off.
//
//   $ ./build/examples/online_stream
#include <iostream>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "common/table.h"
#include "serve/stream.h"
#include "workload/arrivals.h"

int main() {
  using namespace mecsched;

  workload::ArrivalConfig cfg;
  cfg.scenario.num_devices = 30;
  cfg.scenario.num_base_stations = 5;
  cfg.scenario.num_tasks = 150;
  cfg.scenario.seed = 2026;
  cfg.arrival_rate_per_s = 25.0;
  const auto stream = workload::make_timed_scenario(cfg);

  std::cout << "stream: " << stream.tasks.size() << " tasks over "
            << Table::num(stream.tasks.back().release_s, 1)
            << " s (Poisson, 25 tasks/s)\n\n";

  // The clairvoyant yardstick: all tasks known at t=0.
  std::vector<mec::Task> all;
  for (const auto& t : stream.tasks) all.push_back(t.task);
  const assign::HtaInstance inst(stream.topology, all);
  const auto offline = assign::evaluate(inst, assign::LpHta().assign(inst));

  Table table({"policy", "energy (J)", "mean response (s)", "cancelled",
               "epochs"});
  table.add_row({"offline (clairvoyant)", Table::num(offline.total_energy_j, 1),
                 "-", std::to_string(offline.cancelled), "-"});

  double fast_cancelled = 0.0, slow_cancelled = 0.0;
  for (double epoch : {0.1, 0.5, 2.0}) {
    serve::ServeOptions opts;
    opts.batching.window_s = epoch;
    opts.readmission.max_attempts = 1;
    const serve::StreamResult r =
        serve::run_stream(opts, stream.topology, stream.tasks);
    table.add_row({"online, epoch " + Table::num(epoch, 1) + " s",
                   Table::num(r.serve.total_energy_j, 1),
                   Table::num(r.mean_response_s, 2),
                   std::to_string(r.unsatisfied()),
                   std::to_string(r.serve.decide_epochs)});
    if (epoch == 0.1) fast_cancelled = static_cast<double>(r.unsatisfied());
    if (epoch == 2.0) slow_cancelled = static_cast<double>(r.unsatisfied());
  }
  std::cout << table << '\n';
  std::cout << "short epochs react fast (fewer deadline cancellations) but\n"
               "re-solve the LP more often; long epochs batch well but eat\n"
               "the tasks' deadline slack while they wait.\n";
  return fast_cancelled <= slow_cancelled ? 0 : 1;
}
