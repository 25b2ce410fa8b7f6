// dta_division: the paper's Sec. V.C shared-data scenarios (Figs. 5/6):
// 50 devices, 5 base stations, 100..450 divisible tasks in steps of 50,
// 600 data items with up to 5 extra owners each, inputs up to 3000 kB,
// kReplicas seeds per task count. A pass sends every scenario through
// dta::run_dta with DTA-Workload and with DTA-Number, scheduling the
// partial tasks with the kLocalGreedy scheduler the shipped figures use,
// so no LP runs here.
#include <cstdint>
#include <optional>
#include <vector>

#include "assign/assignment.h"
#include "assign/hta_instance.h"
#include "dta/coverage.h"
#include "dta/pipeline.h"
#include "harness.h"
#include "obs/registry.h"
#include "workload/shared_data.h"

namespace perfbench {
namespace {

using namespace mecsched;

// Run seeds each draw a fresh set of scenarios; 26 per task count puts
// enough calls beyond solve_ms_p95 and admit_to_decision_ms_p99 that those
// tails move little from seed to seed.
constexpr std::size_t kReplicas = 26;
constexpr int kSetupReps = 9;
constexpr dta::DtaStrategy kStrategies[] = {dta::DtaStrategy::kWorkload,
                                           dta::DtaStrategy::kNumber};

struct Case {
  explicit Case(dta::SharedDataScenario s)
      : scenario(std::move(s)), needed(scenario.required_items()) {}
  dta::SharedDataScenario scenario;
  dta::ItemSet needed;  // the data D the divisions must cover
};

std::vector<Case> generate(std::uint64_t seed) {
  std::vector<Case> out;
  for (std::size_t tasks = 100; tasks <= 450; tasks += 50) {
    for (std::uint64_t k = 1; k <= kReplicas; ++k) {
      workload::SharedDataConfig cfg;
      cfg.num_devices = 50;
      cfg.num_base_stations = 5;
      cfg.num_tasks = tasks;
      cfg.num_items = 600;
      cfg.max_extra_owners = 5;
      cfg.max_input_kb = 3000.0;
      // Seed 1's first three replicas are the Fig. 5a grid's.
      cfg.seed = ((seed - 1) * kReplicas + k) * 1000 + tasks;
      out.emplace_back(workload::make_shared_scenario(cfg));
    }
  }
  return out;
}

dta::DtaResult run(const Case& c, dta::DtaStrategy strategy) {
  dta::DtaOptions opts;
  opts.strategy = strategy;
  opts.scheduler = dta::PartialScheduler::kLocalGreedy;
  return dta::run_dta(c.scenario, opts);
}

void check_coverage(Report& report, const Case& c, const dta::DtaResult& r) {
  report.expect(
      dta::is_valid_coverage(r.coverage, c.needed, c.scenario.ownership),
      "dta_division: is_valid_coverage holds for every coverage");
}

// Divisible tasks whose every partial task was placed and meets its
// deadline. The pipeline makes partial tasks device by device and, within
// a device, in task order: one per task whose items meet the device's
// share (dta/pipeline.h, step 2).
std::size_t served_tasks(Report& report, const Case& c,
                         const dta::DtaResult& r) {
  const dta::SharedDataScenario& s = c.scenario;
  const assign::HtaInstance inst(s.topology, r.rearranged);
  std::vector<bool> served(s.tasks.size(), true);
  std::size_t p = 0;
  std::size_t failed_partials = 0;
  for (const dta::ItemSet& share : r.coverage.assigned) {
    if (share.empty()) continue;
    for (std::size_t src = 0; src < s.tasks.size(); ++src) {
      if (dta::set_intersect(share, s.tasks[src].items).empty()) continue;
      if (p >= r.assignment.size()) break;
      const assign::Decision d = r.assignment.decisions[p];
      if (d == assign::Decision::kCancelled ||
          !inst.meets_deadline(p, assign::to_placement(d))) {
        served[src] = false;
        ++failed_partials;
      }
      ++p;
    }
  }
  report.expect(p == r.rearranged.size() &&
                    failed_partials == r.partials_cancelled +
                                           r.partials_deadline_violations,
                "dta_division: every partial task maps back to its source");
  std::size_t n = 0;
  for (const bool ok : served) n += ok ? 1 : 0;
  return n;
}

// What a pass's first run of each call returned, to hold later passes to.
struct Outcome {
  double energy_j = 0.0;
  std::size_t involved = 0;
  std::size_t max_share = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome(const dta::DtaResult& r) {
  return {r.total_energy_j, r.involved_devices, r.coverage.max_share()};
}

Report run_timed(const Options& o) {
  Report report;
  EndToEnd e;
  std::optional<std::vector<Case>> cases;
  e.setup_s = median_setup_s(kSetupReps, [&] { cases.emplace(generate(o.seed)); });
  for (const Case& c : *cases) {
    for (const dta::DtaStrategy strategy : kStrategies) run(c, strategy);
  }

  CallClock clock;
  std::vector<Outcome> first;
  double energy_j = 0.0;
  double involved = 0.0;   // DTA-Number calls
  double max_share = 0.0;  // DTA-Workload calls
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(t0) < o.seconds;
       ++pass) {
    const std::size_t first_call = clock.calls();
    std::size_t call = 0;
    for (const Case& c : *cases) {
      for (const dta::DtaStrategy strategy : kStrategies) {
        ++report.attempted;
        const dta::DtaResult r = clock.time([&] { return run(c, strategy); });
        check_coverage(report, c, r);
        if (pass == 0) {
          e.offered.push_back(c.scenario.tasks.size());
          e.placed.push_back(served_tasks(report, c, r));
          energy_j += r.total_energy_j;
          if (strategy == dta::DtaStrategy::kNumber) {
            involved += static_cast<double>(r.involved_devices);
          } else {
            max_share += static_cast<double>(r.coverage.max_share());
          }
          first.push_back(outcome(r));
        } else {
          report.expect(outcome(r) == first[call],
                        "dta_division: every pass returns the same results");
        }
        ++call;
      }
    }
    e.add_pass(clock, first_call);
  }
  const auto offered = static_cast<double>(sum(e.offered));
  const auto per_strategy = static_cast<double>(cases->size());
  e.placed_share = static_cast<double>(sum(e.placed)) / offered;
  e.energy_j_per_task = energy_j / offered;
  e.involved_devices = involved / per_strategy;
  e.max_share_items = max_share / per_strategy;
  add_end_to_end(report, e);
  return report;
}

Report run_traced(const Options& o) {
  Report report;
  std::optional<std::vector<Case>> cases;
  cases.emplace(generate(o.seed));
  BenchSide side;
  const auto pass = [&] {
    CallClock clock;
    side.partial_tasks = 0;
    for (const Case& c : *cases) {
      dta::Coverage balanced;
      dta::Coverage min_devices;
      {
        const obs::ScopedTimer span("bench.dta.divide_balanced", "bench");
        balanced = dta::divide_balanced(c.needed, c.scenario.ownership);
      }
      {
        const obs::ScopedTimer span("bench.dta.divide_min_devices", "bench");
        min_devices = dta::divide_min_devices(c.needed, c.scenario.ownership);
      }
      for (const dta::DtaStrategy strategy : kStrategies) {
        ++report.attempted;
        const dta::DtaResult r = clock.time([&] {
          const obs::ScopedTimer span("bench.dta.run_dta", "bench");
          return run(c, strategy);
        });
        check_coverage(report, c, r);
        const dta::Coverage& divided =
            strategy == dta::DtaStrategy::kNumber ? min_devices : balanced;
        report.expect(r.coverage.assigned == divided.assigned,
                      "dta_division: run_dta divides as the public divide_* "
                      "calls do");
        side.partial_tasks += r.rearranged.size();
      }
    }
    return clock.total_wall_s();
  };

  start_traced_run(side, 3, pass);
  {
    const obs::ScopedTimer span("bench.workload.generate", "bench");
    cases.emplace(generate(o.seed));
  }
  side.traced_wall_s.push_back(pass());
  obs::Tracer::global().disable();

  report.counters = layer_counters();
  report.counters["dta.partial_tasks"] = side.partial_tasks;
  add_layer_metrics(report, obs::Tracer::global().snapshot(), report.counters,
                    side);
  return report;
}

}  // namespace

Report run_dta_division(const Options& options) {
  return options.trace ? run_traced(options) : run_timed(options);
}

}  // namespace perfbench
