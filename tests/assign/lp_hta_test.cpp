#include "assign/lp_hta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "assign/cluster_lp.h"
#include "assign/evaluator.h"
#include "assign/exact.h"
#include "common/error.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "lp/simplex.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/solver_chaos.h"
#include "workload/scenario.h"

namespace mecsched::assign {
namespace {

workload::Scenario small_scenario(std::uint64_t seed, std::size_t tasks = 30,
                                  std::size_t devices = 10,
                                  std::size_t stations = 2) {
  workload::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.num_devices = devices;
  cfg.num_base_stations = stations;
  return workload::make_scenario(cfg);
}

TEST(LpHtaTest, ProducesDecisionPerTask) {
  const auto s = small_scenario(1);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.size(), inst.num_tasks());
}

TEST(LpHtaTest, SolutionIsAlwaysFeasible) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto s = small_scenario(seed, 40, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    const Assignment a = LpHta().assign(inst);
    const FeasibilityReport rep = check_feasibility(inst, a);
    EXPECT_TRUE(rep.ok) << "seed " << seed << ": "
                        << (rep.problems.empty() ? "" : rep.problems[0]);
  }
}

TEST(LpHtaTest, NoCancellationsWhenCapacityIsAmple) {
  workload::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.num_tasks = 40;
  cfg.device_capacity_min = 100.0;
  cfg.device_capacity_max = 100.0;
  cfg.station_capacity_per_device = 100.0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.cancelled(), 0u);
}

TEST(LpHtaTest, ReportTracksTheoremTwoQuantities) {
  const auto s = small_scenario(7);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rep;
  const Assignment a = LpHta().assign_with_report(inst, rep);
  const Metrics m = evaluate(inst, a);

  EXPECT_GT(rep.lp_objective, 0.0);
  // Lemma 1: the rounded point (which may sit outside the LP polytope, so
  // it is not bounded below by the LP optimum) costs at most 3x it.
  EXPECT_LE(rep.rounded_energy, 3.0 * rep.lp_objective + 1e-6);
  // final_energy matches the evaluator's total.
  EXPECT_NEAR(rep.final_energy, m.total_energy_j, 1e-9);
  EXPECT_GE(rep.theorem2_bound(), 3.0);
  // Corollary 1's bound is populated and the reported bound is their min.
  EXPECT_GT(rep.corollary1_bound, 0.0);
  EXPECT_LE(rep.ratio_bound(),
            std::min(rep.theorem2_bound(), rep.corollary1_bound) + 1e-12);
}

TEST(LpHtaTest, WithinLemmaOneFactorOfLpOptimum) {
  // Lemma 1: energy after rounding <= 3 * LP optimum. Steps 4-6 may add Δ,
  // so only the *rounded* energy is bounded by 3x.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto s = small_scenario(seed, 36, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    LpHtaReport rep;
    LpHta().assign_with_report(inst, rep);
    EXPECT_LE(rep.rounded_energy, 3.0 * rep.lp_objective + 1e-6)
        << "seed " << seed;
  }
}

TEST(LpHtaTest, MatchesExactOptimumWithinTheoremBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = small_scenario(seed, 24, 8, 2);
    const HtaInstance inst(s.topology, s.tasks);
    LpHtaReport rep;
    const Assignment a = LpHta().assign_with_report(inst, rep);
    const ExactResult opt = ExactHta().solve(inst);
    if (!opt.proven_optimal) continue;  // capacity-infeasible corner

    const Metrics m = evaluate(inst, a);
    // Only compare when LP-HTA placed everything the optimum placed.
    if (a.cancelled() != opt.assignment.cancelled()) continue;
    EXPECT_GE(m.total_energy_j, opt.energy - 1e-6) << "seed " << seed;
    EXPECT_LE(m.total_energy_j, rep.ratio_bound() * opt.energy + 1e-6)
        << "seed " << seed;
  }
}

TEST(LpHtaTest, InteriorPointEngineAgreesWithSimplexEngine) {
  const auto s = small_scenario(11, 30, 10, 2);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rs, ri;
  LpHta(LpHtaOptions{LpEngine::kSimplex}).assign_with_report(inst, rs);
  LpHta(LpHtaOptions{LpEngine::kInteriorPoint}).assign_with_report(inst, ri);
  // Same relaxation, so the LP optimum must agree between engines.
  EXPECT_NEAR(rs.lp_objective, ri.lp_objective,
              1e-4 * (1.0 + rs.lp_objective));
}

TEST(LpHtaTest, HopelessDeadlinesAreCancelled) {
  workload::ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.num_tasks = 30;
  // slack < 1: deadlines tighter than the best achievable latency.
  cfg.deadline_slack_min = 0.01;
  cfg.deadline_slack_max = 0.05;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport rep;
  const Assignment a = LpHta().assign_with_report(inst, rep);
  EXPECT_EQ(a.cancelled(), inst.num_tasks());
  EXPECT_EQ(rep.cancelled_infeasible, inst.num_tasks());
  // and the result is still "feasible": nothing placed, nothing violated
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

TEST(LpHtaTest, TinyCapacitiesForceCancellationNotInfeasibility) {
  workload::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.num_tasks = 40;
  cfg.num_devices = 8;
  cfg.num_base_stations = 2;
  cfg.device_capacity_min = 0.0;
  cfg.device_capacity_max = 0.5;       // almost nothing fits locally
  cfg.station_capacity_per_device = 0.25;  // stations tiny too
  // make cloud latency-infeasible for many tasks: tight deadlines
  cfg.deadline_slack_min = 1.05;
  cfg.deadline_slack_max = 1.2;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

TEST(LpHtaTest, EmptyInstance) {
  workload::ScenarioConfig cfg;
  cfg.num_tasks = 0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  const Assignment a = LpHta().assign(inst);
  EXPECT_EQ(a.size(), 0u);
}

// The device rows group each cluster's task slots by issuer: devices in
// ascending id, slots in `active` order within a device — the order a
// stable sort of the slots by issuer gives. device_row(i) and
// station_row() name the C2 row of device_ids[i] and the C3 row.
TEST(LpHtaTest, DeviceSlotsMatchAStableSortByIssuer) {
  Rng rng(29);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::ScenarioConfig cfg;
    cfg.seed = seed;
    cfg.num_base_stations = static_cast<std::size_t>(rng.uniform_int(1, 6));
    cfg.num_devices = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(cfg.num_base_stations), 40));
    cfg.num_tasks = static_cast<std::size_t>(rng.uniform_int(0, 120));
    // Some deadlines below the fastest placement, so that `active` skips
    // unschedulable tasks.
    cfg.deadline_slack_min = seed % 2 == 0 ? 0.2 : 1.3;
    const auto s = workload::make_scenario(cfg);
    const HtaInstance inst(s.topology, s.tasks);
    for (std::size_t b = 0; b < inst.topology().num_base_stations(); ++b) {
      const ClusterLp c = build_cluster_lp(inst, b);
      const auto issuer = [&](std::size_t slot) {
        return inst.task(c.active[slot]).id.user;
      };
      std::vector<std::size_t> slots(c.active.size());
      std::iota(slots.begin(), slots.end(), 0);
      std::stable_sort(slots.begin(), slots.end(),
                       [&](std::size_t x, std::size_t y) {
                         return issuer(x) < issuer(y);
                       });
      std::vector<std::size_t> ids;
      std::vector<std::size_t> begin;
      for (std::size_t k = 0; k < slots.size(); ++k) {
        if (ids.empty() || ids.back() != issuer(slots[k])) {
          ids.push_back(issuer(slots[k]));
          begin.push_back(k);
        }
      }
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", cluster "
                                        << b);
      EXPECT_EQ(c.device_slots, slots);
      EXPECT_EQ(c.device_ids, ids);
      if (c.active.empty()) continue;
      begin.push_back(slots.size());
      EXPECT_EQ(c.device_begin, begin);
      ASSERT_EQ(c.problem.num_constraints(), c.station_row() + 1);
      // A C2 or C3 row: `<=` its capacity, one term per slot on column
      // `l`, in slot order, with the task's resource.
      const auto expect_row = [&](std::size_t row, std::size_t l,
                                  std::span<const std::size_t> row_slots,
                                  double capacity) {
        const lp::Constraint r = c.problem.constraint(row);
        EXPECT_EQ(r.relation, lp::Relation::kLessEqual);
        EXPECT_EQ(r.rhs, capacity);
        ASSERT_EQ(r.terms.size(), row_slots.size());
        for (std::size_t k = 0; k < row_slots.size(); ++k) {
          EXPECT_EQ(r.terms[k].var, c.column(row_slots[k], l));
          EXPECT_EQ(r.terms[k].coeff,
                    inst.task(c.active[row_slots[k]]).resource);
        }
      };
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(c.device_row(i), c.active.size() + i);
        expect_row(c.device_row(i), 0,
                   std::span(slots).subspan(begin[i], begin[i + 1] - begin[i]),
                   inst.topology().device(ids[i]).max_resource);
      }
      std::vector<std::size_t> all(c.active.size());
      std::iota(all.begin(), all.end(), std::size_t{0});
      EXPECT_EQ(c.station_row(), c.active.size() + ids.size());
      expect_row(c.station_row(), 1, all,
                 inst.topology().base_station(b).max_resource);
    }
  }
}

// E_LP^(OPT) from a cold (all-artificial) simplex solve of every cluster
// LP, over the placement columns only, summed over stations.
double cold_lp_objective(const HtaInstance& inst) {
  double total = 0.0;
  for (std::size_t b = 0; b < inst.topology().num_base_stations(); ++b) {
    const ClusterLp c = build_cluster_lp(inst, b);
    if (c.active.empty()) continue;
    const lp::Solution cold = lp::SimplexSolver().solve(c.problem);
    EXPECT_TRUE(cold.optimal());
    for (std::size_t idx = 0; idx < c.active.size(); ++idx) {
      for (std::size_t l = 0; l < 3; ++l) {
        total += c.problem.cost(c.column(idx, l)) * cold.x[c.column(idx, l)];
      }
    }
  }
  return total;
}

// Step 1 starts from each task's cheapest whole placement (cluster_lp.h);
// the start changes the pivot path, never the LP optimum, so the
// Theorem-2 diagnostics built on it match a cold solve.
TEST(LpHtaTest, CrashStartMatchesColdLpObjective) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = small_scenario(seed, 40, 12, 3);
    const HtaInstance inst(s.topology, s.tasks);
    LpHtaReport report;
    const Assignment a = LpHta().assign_with_report(inst, report);
    const double cold = cold_lp_objective(inst);
    EXPECT_NEAR(report.lp_objective, cold, 1e-6 * (1.0 + cold))
        << "seed " << seed;
    EXPECT_TRUE(check_feasibility(inst, a).ok) << "seed " << seed;
  }
}

// A task whose only deadline-feasible placement meets the deadline within
// meets_deadline's tolerance but has upper bound < 1 cannot take that
// placement whole, so its crash lands on the cancel column.
TEST(LpHtaTest, CrashOnTheCancelColumnMatchesColdLpObjective) {
  const auto s = small_scenario(2);
  std::vector<mec::Task> tasks = s.tasks;
  const HtaInstance base(s.topology, tasks);
  std::size_t pick = base.num_tasks();
  mec::Placement fastest = mec::Placement::kLocal;
  for (std::size_t t = 0; t < base.num_tasks() && pick == base.num_tasks();
       ++t) {
    std::vector<double> lat;
    for (const mec::Placement p : mec::kAllPlacements) {
      lat.push_back(base.latency(t, p));
    }
    std::sort(lat.begin(), lat.end());
    if (lat[1] > lat[0] * 1.01) {  // one clear fastest placement
      pick = t;
      for (const mec::Placement p : mec::kAllPlacements) {
        if (base.latency(t, p) == lat[0]) fastest = p;
      }
    }
  }
  ASSERT_LT(pick, base.num_tasks());
  tasks[pick].deadline_s = base.latency(pick, fastest) - 5e-13;
  const HtaInstance inst(s.topology, tasks);
  ASSERT_TRUE(inst.schedulable(pick));

  const std::size_t b = s.topology.device(tasks[pick].id.user).base_station;
  const ClusterLp c = build_cluster_lp(inst, b);
  const auto slot = static_cast<std::size_t>(
      std::find(c.active.begin(), c.active.end(), pick) - c.active.begin());
  ASSERT_LT(slot, c.active.size());
  const auto l = static_cast<std::size_t>(fastest);
  EXPECT_GT(c.problem.upper(c.column(slot, l)), 0.0);
  EXPECT_LT(c.problem.upper(c.column(slot, l)), 1.0);
  EXPECT_EQ(c.crash[c.column(slot, 3)], 1.0);

  LpHtaReport report;
  const Assignment a = LpHta().assign_with_report(inst, report);
  const double cold = cold_lp_objective(inst);
  EXPECT_NEAR(report.lp_objective, cold, 1e-6 * (1.0 + cold));
  EXPECT_TRUE(check_feasibility(inst, a).ok);
}

// The crash puts each task's unit on its cheapest column it can take
// whole, lowest placement index on ties.
TEST(LpHtaTest, CrashPicksTheCheapestWholePlacement) {
  const auto s = small_scenario(4, 40, 12, 3);
  const HtaInstance inst(s.topology, s.tasks);
  for (std::size_t b = 0; b < s.topology.num_base_stations(); ++b) {
    const ClusterLp c = build_cluster_lp(inst, b);
    ASSERT_EQ(c.crash.size(), c.problem.num_variables());
    for (std::size_t idx = 0; idx < c.active.size(); ++idx) {
      std::size_t expected = 3;
      for (std::size_t l = 0; l < 3; ++l) {
        const std::size_t col = c.column(idx, l);
        if (c.problem.upper(col) >= 1.0 &&
            (expected == 3 ||
             c.problem.cost(col) < c.problem.cost(c.column(idx, expected)))) {
          expected = l;
        }
      }
      for (std::size_t l = 0; l < 4; ++l) {
        EXPECT_EQ(c.crash[c.column(idx, l)], l == expected ? 1.0 : 0.0);
      }
    }
  }
}

// When every device and the station can absorb each task's cheapest
// whole placement, that crash point is the LP optimum and also the start
// basis (a structural column basic in every task row), so Step 1 adds
// nothing to lp.simplex.pivots.
TEST(LpHtaTest, ClusterWithSlackCapacityTakesNoPivots) {
  workload::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.num_tasks = 40;
  cfg.device_capacity_min = 100.0;
  cfg.device_capacity_max = 100.0;
  cfg.station_capacity_per_device = 100.0;
  const auto s = workload::make_scenario(cfg);
  const HtaInstance inst(s.topology, s.tasks);
  obs::Counter& pivots = obs::Registry::global().counter("lp.simplex.pivots");
  const std::uint64_t before = pivots.value();
  LpHtaReport report;
  const Assignment a = LpHta().assign_with_report(inst, report);
  EXPECT_EQ(pivots.value() - before, 0u);
  EXPECT_EQ(report.lp_iterations, 0u);
  EXPECT_EQ(a.cancelled(), 0u);
  const double cold = cold_lp_objective(inst);
  EXPECT_NEAR(report.lp_objective, cold, 1e-9 * (1.0 + cold));
}

// Stations without tasks contribute nothing (a serve epoch's instance
// holds every cell), so LP-HTA skips them: same decisions and report, and
// one lp_hta.cluster span per station that holds tasks.
TEST(LpHtaTest, StationsWithoutTasksAreSkipped) {
  const auto s = small_scenario(3, 40, 12, 3);
  const HtaInstance inst(s.topology, s.tasks);
  LpHtaReport report;
  const Assignment plain = LpHta().assign_with_report(inst, report);

  // Interleave two zero-capacity stations, one of them with a device that
  // issues no task.
  const std::vector<std::size_t> slot_of = {1, 3, 4};
  std::vector<mec::BaseStation> stations(6);
  for (std::size_t b = 0; b < stations.size(); ++b) {
    stations[b] = {b, s.topology.base_station(0).cpu_hz, 0.0};
  }
  for (std::size_t b = 0; b < 3; ++b) {
    stations[slot_of[b]] = s.topology.base_station(b);
    stations[slot_of[b]].id = slot_of[b];
  }
  std::vector<mec::Device> devices;
  for (std::size_t d = 0; d < s.topology.num_devices(); ++d) {
    devices.push_back(s.topology.device(d));
    devices.back().base_station = slot_of[devices.back().base_station];
  }
  devices.push_back(s.topology.device(0));
  devices.back().id = devices.size() - 1;
  devices.back().base_station = 2;
  const mec::Topology padded(devices, stations, s.topology.params());
  const HtaInstance padded_inst(padded, s.tasks);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  LpHtaReport padded_report;
  const Assignment skipped =
      LpHta().assign_with_report(padded_inst, padded_report);
  tracer.disable();

  EXPECT_EQ(skipped.decisions, plain.decisions);
  EXPECT_EQ(padded_report.lp_objective, report.lp_objective);
  EXPECT_EQ(padded_report.rounded_energy, report.rounded_energy);
  EXPECT_EQ(padded_report.final_energy, report.final_energy);
  EXPECT_EQ(padded_report.cancelled_infeasible, report.cancelled_infeasible);
  EXPECT_EQ(padded_report.cancelled_capacity, report.cancelled_capacity);
  EXPECT_EQ(padded_report.lp_iterations, report.lp_iterations);
  EXPECT_EQ(padded_report.corollary1_bound, report.corollary1_bound);

  std::size_t with_tasks = 0;
  for (std::size_t b = 0; b < padded.num_base_stations(); ++b) {
    if (!padded_inst.cluster_tasks(b).empty()) ++with_tasks;
  }
  EXPECT_EQ(with_tasks, 3u);
  std::size_t spans = 0;
  for (const obs::TraceEvent& e : tracer.snapshot()) {
    if (e.name == "lp_hta.cluster") ++spans;
  }
  EXPECT_EQ(spans, with_tasks);
}

// One LP-HTA run under armed solver chaos: its plan, or the message of
// the SolverError it threw, and the chaos hits its assign-layer flight
// record counted.
struct ChaosRun {
  std::vector<Decision> decisions;
  std::string error;
  std::uint64_t chaos_hits = 0;
};

ChaosRun run_under_chaos(const HtaInstance& inst,
                         const sim::SolverChaosConfig& config,
                         exec::ThreadPool* pool) {
  sim::SolverChaos chaos(config);
  const sim::ChaosArmed armed(chaos);
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  flight.enable();
  ChaosRun run;
  try {
    run.decisions = LpHta({}, pool).assign(inst).decisions;
  } catch (const SolverError& e) {
    run.error = e.what();
  }
  for (const obs::SolveRecord& r : flight.snapshot()) {
    if (r.layer == "assign" && r.engine == "lp_hta") {
      run.chaos_hits = r.chaos_hits;
    }
  }
  flight.disable();
  return run;
}

// Clusters solved on pool workers count their chaos hits on those
// workers; the run's record sums them, and the plan or the lowest
// station's error is the one a solve on the calling thread gives.
TEST(LpHtaTest, ChaosRunIsTheSameOnAPool) {
  const auto s = small_scenario(5, 160, 40, 8);
  const HtaInstance inst(s.topology, s.tasks);
  exec::ThreadPool pool(2);
  sim::SolverChaosConfig stalls;
  stalls.seed = 3;
  stalls.stall_prob = 0.05;
  sim::SolverChaosConfig errors;
  errors.seed = 3;
  errors.error_prob = 0.2;
  for (const auto& [config, fails] :
       {std::pair{stalls, false}, std::pair{errors, true}}) {
    const ChaosRun inline_run = run_under_chaos(inst, config, nullptr);
    const ChaosRun pooled = run_under_chaos(inst, config, &pool);
    SCOPED_TRACE(fails ? "errors" : "stalls");
    EXPECT_EQ(inline_run.error.empty(), !fails) << inline_run.error;
    EXPECT_GT(inline_run.chaos_hits, 1u);
    EXPECT_EQ(pooled.decisions, inline_run.decisions);
    EXPECT_EQ(pooled.error, inline_run.error);
    EXPECT_EQ(pooled.chaos_hits, inline_run.chaos_hits);
  }
}

// Pins LP-HTA(ipm) decisions, task for task, on six 20-task scenarios
// spread over 50 devices and 5 stations. Their clusters hold a handful of
// tasks each, so these are the smallest normal-equation systems the
// interior-point engine sees. Update the pin only for a deliberate output
// change.
TEST(LpHtaTest, InteriorPointDecisionsArePinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the decisions
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto s = small_scenario(seed, 20, 50, 5);
    const HtaInstance inst(s.topology, s.tasks);
    const Assignment a =
        LpHta(LpHtaOptions{LpEngine::kInteriorPoint}).assign(inst);
    for (const Decision d : a.decisions) {
      h = (h ^ static_cast<std::uint64_t>(d)) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, 0xde9fa0da6fc22a85ull) << std::hex << h;
}

}  // namespace
}  // namespace mecsched::assign
