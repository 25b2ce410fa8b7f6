#include "assign/lp_hta.h"

#include "assign/cluster_lp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <span>
#include <vector>

#include "audit/assignment_audit.h"
#include "audit/audit.h"
#include "common/chaos_hook.h"
#include "common/error.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "lp/interior_point.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::assign {
namespace {

using mec::Placement;

constexpr std::array<Placement, 3> kPlacements = mec::kAllPlacements;

// A deadline-degraded relaxation is still usable when the engine kept its
// anytime half of the kDeadline contract (a non-empty x): Steps 2-6 round
// and repair it like any fractional point, and the final assignment audit
// applies unchanged. An empty x (expiry before feasibility) is a failure.
bool usable_anytime(const lp::Solution& s) {
  return s.status == lp::SolveStatus::kDeadline && !s.x.empty();
}

// Whether Step 1 starts from ClusterLp::crash. The IPM takes no start
// point, so only the simplex engine uses it (an IPM cluster that falls
// back to the simplex solves it cold).
bool crash_started(const LpHtaOptions& options) {
  return options.engine == LpEngine::kSimplex;
}

lp::Solution solve_relaxation(const ClusterLp& cluster,
                              const LpHtaOptions& options,
                              const CancellationToken& cancel) {
  const lp::Problem& p = cluster.problem;
  const std::size_t budget = options.max_lp_iterations;
  if (options.engine == LpEngine::kInteriorPoint) {
    lp::InteriorPointOptions ipm;
    if (budget > 0) ipm.max_iterations = budget;
    ipm.cancel = cancel;
    const lp::Solution s = lp::InteriorPointSolver(ipm).solve(p);
    if (s.optimal()) return s;
    if (usable_anytime(s)) {
      obs::Registry::global().counter("lp_hta.anytime_relaxations").add();
      return s;
    }
    // The IPM certifies optimality but cannot always prove feasibility
    // issues; the simplex solver is the fallback arbiter.
  }
  lp::SimplexOptions smx;
  if (budget > 0) smx.max_iterations = budget;
  smx.cancel = cancel;
  const lp::SimplexSolver solver(smx);
  const lp::Solution s = crash_started(options)
                             ? solver.solve(p, cluster.crash)
                             : solver.solve(p);
  if (!s.optimal()) {
    if (usable_anytime(s)) {
      obs::Registry::global().counter("lp_hta.anytime_relaxations").add();
      return s;
    }
    throw SolverError("LP-HTA: cluster relaxation not optimal (" +
                      lp::to_string(s.status) + ")");
  }
  return s;
}

// One cluster's share of the Theorem-2 diagnostics, or the error its
// solve threw; its decisions go straight into the plan. Clusters are
// independent (Sec. III.A); their outcomes are merged in station order.
struct ClusterOutcome {
  double lp_objective = 0.0;
  double rounded_energy = 0.0;
  std::size_t cancelled_infeasible = 0;
  std::size_t cancelled_capacity = 0;
  std::size_t lp_iterations = 0;
  // The relaxation ran out of budget and served its anytime point.
  bool deadline_degraded = false;
  // Chaos faults injected during this cluster's solve. The injection count
  // is per thread, so it is taken on the thread that solved the cluster.
  std::uint64_t chaos_hits = 0;
  std::exception_ptr error;
};

// Renders the per-cluster span args only when a trace is being captured —
// the string build is not free and the spans are per-cluster-per-epoch.
std::string cluster_args(std::size_t b) {
  return obs::Tracer::global().enabled() ? "\"station\":" + std::to_string(b)
                                         : std::string();
}

// Solves cluster `b` and writes its tasks' decisions into `plan`, which
// holds kCancelled for each of them on entry. Clusters own disjoint slots
// of the plan, so concurrent solves never write the same one.
ClusterOutcome solve_cluster(const HtaInstance& instance, std::size_t b,
                             const LpHtaOptions& options,
                             const CancellationToken& cancel,
                             std::span<Decision> plan) {
  static obs::Histogram& cluster_seconds =
      obs::Registry::global().histogram("lp_hta.cluster.seconds");
  const obs::ScopedTimer cluster_span(cluster_seconds, "lp_hta.cluster",
                                      "assign", cluster_args(b));
  const mec::Topology& topo = instance.topology();
  ClusterOutcome out;

  // ---- Pre-Step + Step 1: the LP relaxation P2 for this cluster (see
  // cluster_lp.h). Tasks with no deadline-feasible placement are cancelled
  // eagerly (the paper's Step-4 "cancel and inform users"); each remaining
  // task gets a cancel-slack column (a documented deviation from the
  // literal P2 that keeps the LP feasible under deadline-capacity
  // interactions; with no cancellation pressure the relaxation is exactly
  // P2).
  const ClusterLp cluster = [&] {
    static obs::Histogram& build_seconds =
        obs::Registry::global().histogram("lp_hta.build.seconds");
    const obs::ScopedTimer build_span(build_seconds, "lp_hta.build", "assign",
                                      cluster_args(b));
    return build_cluster_lp(instance, b);
  }();
  out.cancelled_infeasible = cluster.unschedulable;  // they stay kCancelled
  const std::vector<std::size_t>& active = cluster.active;
  if (active.empty()) return out;
  const lp::Problem& p = cluster.problem;
  // The plan's decision for task slot `idx` (an index into `active`).
  const auto decide = [&](std::size_t idx) -> Decision& {
    return plan[active[idx]];
  };

  lp::Solution relax;
  {
    // Step 1 — the paper's "solve the relaxation" phase. The nested
    // lp.simplex.solve / lp.ipm.solve spans decompose it.
    static obs::Histogram& relax_seconds =
        obs::Registry::global().histogram("lp_hta.relax.seconds");
    const obs::ScopedTimer relax_span(relax_seconds, "lp_hta.relax", "assign",
                                      cluster_args(b));
    relax = solve_relaxation(cluster, options, cancel);
  }
  out.lp_iterations = relax.iterations;
  out.deadline_degraded = relax.status == lp::SolveStatus::kDeadline;
  // ξ of task slot `idx` on column `l` (3: the cancel slack).
  const auto mass = [&](std::size_t idx, std::size_t l) {
    return relax.x[cluster.column(idx, l)];
  };
  // E_LP^(OPT) over the *real* placement columns (the cancel slack's
  // penalty is an artifact, not energy).
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    for (std::size_t l = 0; l < 3; ++l) {
      out.lp_objective += p.cost(cluster.column(idx, l)) * mass(idx, l);
    }
  }

  // Step 4–6 migrations (deadline repair + capacity evictions), reported
  // as the "repair pressure" of this cluster.
  std::size_t repair_moves = 0;

  // ---- Steps 2+3: round each task to argmax_l X[i,j,l] (the cancel slack
  // competes too; tasks rounding to it are cancelled).
  {
    static obs::Histogram& round_seconds =
        obs::Registry::global().histogram("lp_hta.round.seconds");
    const obs::ScopedTimer round_span(round_seconds, "lp_hta.round", "assign",
                                      cluster_args(b));
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::size_t t = active[idx];
      std::size_t q = 0;
      for (std::size_t l = 1; l < 4; ++l) {
        if (mass(idx, l) > mass(idx, q)) q = l;
      }
      if (q == 3) {
        ++out.cancelled_capacity;  // decide(idx) stays kCancelled
        continue;
      }
      out.rounded_energy += instance.energy(t, kPlacements[q]);

      // ---- Step 4: deadline repair. If the rounded placement misses the
      // deadline, take the deadline-feasible placement with the largest
      // fractional mass (guaranteed to exist after the pre-step).
      if (!instance.meets_deadline(t, kPlacements[q])) {
        std::size_t best = 3;
        for (std::size_t l = 0; l < 3; ++l) {
          if (!instance.meets_deadline(t, kPlacements[l])) continue;
          if (best == 3 || mass(idx, l) > mass(idx, best)) {
            best = l;
          }
        }
        q = best;  // best < 3 by schedulability
        ++repair_moves;
      }
      decide(idx) = to_decision(kPlacements[q]);
    }
  }

  static obs::Histogram& repair_seconds =
      obs::Registry::global().histogram("lp_hta.repair.seconds");
  const obs::ScopedTimer repair_span(repair_seconds, "lp_hta.repair", "assign",
                                     cluster_args(b));

  // Task slots are sorted largest resource first, per the paper's greedy
  // selection.
  const auto resource = [&](std::size_t idx) {
    return instance.task(active[idx]).resource;
  };
  const auto largest_first = [&](std::vector<std::size_t>& slots) {
    std::sort(slots.begin(), slots.end(), [&](std::size_t a, std::size_t c) {
      return resource(a) > resource(c);
    });
  };

  // ---- Step 5: per-device capacity repair.
  std::vector<std::size_t> local;  // slots of one device placed locally
  for (std::size_t i = 0; i < cluster.device_ids.size(); ++i) {
    local.clear();
    double load = 0.0;
    for (std::size_t k = cluster.device_begin[i];
         k < cluster.device_begin[i + 1]; ++k) {
      const std::size_t idx = cluster.device_slots[k];
      if (decide(idx) == Decision::kLocal) {
        local.push_back(idx);
        load += resource(idx);
      }
    }
    const double cap = topo.device(cluster.device_ids[i]).max_resource;
    largest_first(local);
    // Pass 1: migrate to the base station when its latency fits.
    for (std::size_t idx : local) {
      if (load <= cap) break;
      if (instance.meets_deadline(active[idx], Placement::kEdge)) {
        decide(idx) = Decision::kEdge;
        load -= resource(idx);
        ++repair_moves;
      }
    }
    // Pass 2: still over — cancel greedily by resource occupation.
    for (std::size_t idx : local) {
      if (load <= cap) break;
      if (decide(idx) == Decision::kLocal) {
        decide(idx) = Decision::kCancelled;
        ++out.cancelled_capacity;
        load -= resource(idx);
        ++repair_moves;
      }
    }
  }

  // ---- Step 6: station capacity repair.
  {
    std::vector<std::size_t> on_edge;
    double load = 0.0;
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      if (decide(idx) == Decision::kEdge) {
        on_edge.push_back(idx);
        load += resource(idx);
      }
    }
    const double cap = topo.base_station(b).max_resource;
    largest_first(on_edge);
    for (std::size_t idx : on_edge) {
      if (load <= cap) break;
      if (instance.meets_deadline(active[idx], Placement::kCloud)) {
        decide(idx) = Decision::kCloud;
        load -= resource(idx);
        ++repair_moves;
      }
    }
    for (std::size_t idx : on_edge) {
      if (load <= cap) break;
      if (decide(idx) == Decision::kEdge) {
        decide(idx) = Decision::kCancelled;
        ++out.cancelled_capacity;
        load -= resource(idx);
        ++repair_moves;
      }
    }
  }

  static obs::Counter& clusters_solved =
      obs::Registry::global().counter("lp_hta.clusters_solved");
  static obs::Counter& repair_moves_total =
      obs::Registry::global().counter("lp_hta.repair_moves");
  static obs::Counter& cancelled_infeasible =
      obs::Registry::global().counter("lp_hta.cancelled_infeasible");
  static obs::Counter& cancelled_capacity =
      obs::Registry::global().counter("lp_hta.cancelled_capacity");
  clusters_solved.add();
  repair_moves_total.add(repair_moves);
  cancelled_infeasible.add(out.cancelled_infeasible);
  cancelled_capacity.add(out.cancelled_capacity);
  return out;
}

}  // namespace

Assignment LpHta::assign(const HtaInstance& instance) const {
  LpHtaReport unused;
  return assign_with_report(instance, unused);
}

Assignment LpHta::assign(const HtaInstance& instance,
                         const CancellationToken& cancel) const {
  LpHtaReport unused;
  return assign_with_report(instance, unused, cancel);
}

Assignment LpHta::assign_with_report(const HtaInstance& instance,
                                     LpHtaReport& report,
                                     const CancellationToken& cancel) const {
  const obs::ScopedTimer span("lp_hta.assign", "assign");
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  std::uint64_t chaos_hits = 0;  // summed over the clusters below
  // Assign-layer flight record: one per LP-HTA run, aggregating the
  // cluster solves (the per-LP records come from the lp layer itself).
  const auto cut_record = [&](const std::string& status,
                              const std::string& detail,
                              const std::string& audit_verdict,
                              std::uint64_t iterations, bool degraded) {
    obs::SolveRecord r;
    r.layer = "assign";
    r.engine = "lp_hta";
    r.status = status;
    r.detail = detail;
    r.seconds = span.elapsed_s();
    r.iterations = iterations;
    r.deadline_residual_ms =
        obs::FlightRecorder::residual_ms(cancel.deadline());
    r.deadline_hit = degraded;
    r.warm_start = crash_started(options_);
    r.chaos_hits = chaos_hits;
    r.audit = audit_verdict;
    flight.record(std::move(r));
  };
  report = LpHtaReport{};
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCancelled);

  // Every cluster with tasks is solved, writing its decisions into
  // out.decisions; a failure stays in its outcome instead of ending the
  // loop, so the same clusters run at any worker count. Pool workers write
  // disjoint slots, and map's join orders their writes before the reads
  // below; on any failure the plan is thrown away.
  std::vector<std::size_t> stations;
  for (std::size_t b = 0; b < instance.topology().num_base_stations(); ++b) {
    if (!instance.cluster_tasks(b).empty()) stations.push_back(b);
  }
  const auto solve = [&](std::size_t i) {
    const std::uint64_t chaos_before = chaos::local_injections();
    ClusterOutcome c;
    try {
      c = solve_cluster(instance, stations[i], options_, cancel, out.decisions);
    } catch (...) {
      c.error = std::current_exception();
    }
    c.chaos_hits = chaos::local_injections() - chaos_before;
    return c;
  };
  std::vector<ClusterOutcome> outcomes;
  if (pool_ != nullptr) {
    outcomes = pool_->map(stations.size(), solve);
  } else {
    for (std::size_t i = 0; i < stations.size(); ++i) {
      outcomes.push_back(solve(i));
    }
  }

  std::exception_ptr error;  // the lowest station's
  for (const ClusterOutcome& c : outcomes) {
    chaos_hits += c.chaos_hits;
    if (!error) error = c.error;
  }
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const SolverError& e) {
      if (flight.enabled()) cut_record("error", e.what(), "", 0, false);
      throw;
    }
  }

  bool deadline_degraded = false;
  for (const ClusterOutcome& c : outcomes) {
    report.lp_objective += c.lp_objective;
    report.rounded_energy += c.rounded_energy;
    report.cancelled_infeasible += c.cancelled_infeasible;
    report.cancelled_capacity += c.cancelled_capacity;
    report.lp_iterations += c.lp_iterations;
    deadline_degraded = deadline_degraded || c.deadline_degraded;
  }

  // Final energy for the Theorem-2 diagnostics, plus Corollary 1's
  // max E_ij3 / min E_ij1 alternative bound.
  double max_e3 = 0.0;
  double min_e1 = std::numeric_limits<double>::infinity();
  for (std::size_t t = 0; t < instance.num_tasks(); ++t) {
    max_e3 = std::max(max_e3, instance.energy(t, Placement::kCloud));
    min_e1 = std::min(min_e1, instance.energy(t, Placement::kLocal));
    if (out.decisions[t] == Decision::kCancelled) continue;
    report.final_energy += instance.energy(t, to_placement(out.decisions[t]));
  }
  if (instance.num_tasks() > 0 && min_e1 > 0.0 &&
      std::isfinite(min_e1)) {
    report.corollary1_bound = max_e3 / min_e1;
  }

  // Integrality gap of this instance: how far rounding + repair pushed the
  // energy above the LP lower bound (0 = rounding was free).
  if (report.lp_objective > 0.0) {
    const double gap = report.final_energy / report.lp_objective - 1.0;
    obs::Registry& reg = obs::Registry::global();
    reg.gauge("lp_hta.last_integrality_gap").set(gap);
    reg.histogram("lp_hta.integrality_gap").observe(gap);
  }
  // Steps 4–6 promise a deadline- and capacity-feasible plan (cancelling
  // where necessary); hold them to it.
  try {
    audit::check_assignment(instance, out,
                            {.deadlines = true, .capacity = true}, name());
  } catch (const audit::AuditError& e) {
    if (flight.enabled()) {
      cut_record("audit-error", "", e.what(), report.lp_iterations,
                 deadline_degraded);
    }
    throw;
  }
  if (flight.enabled()) {
    cut_record(deadline_degraded ? "deadline" : "ok", "", "ok",
               report.lp_iterations, deadline_degraded);
  }
  return out;
}

}  // namespace mecsched::assign
