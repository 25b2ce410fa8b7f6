#include "assign/lp_hta.h"

#include "assign/cluster_lp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <vector>

#include "audit/assignment_audit.h"
#include "audit/audit.h"
#include "common/chaos_hook.h"
#include "common/error.h"
#include "obs/flight_recorder.h"
#include "lp/interior_point.h"
#include "lp/presolve.h"
#include "lp/problem.h"
#include "lp/scaling.h"
#include "lp/simplex.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::assign {
namespace {

using mec::Placement;

constexpr std::array<Placement, 3> kPlacements = mec::kAllPlacements;

// Column index of task-slot `idx` with placement `l` in the cluster LP.
// Each task owns 4 consecutive columns: local, edge, cloud, cancel-slack.
std::size_t column(std::size_t idx, std::size_t l) { return idx * 4 + l; }

// A deadline-degraded relaxation is still usable when the engine kept its
// anytime half of the kDeadline contract (a non-empty x): Steps 2-6 round
// and repair it like any fractional point, and the final assignment audit
// applies unchanged. An empty x (expiry before feasibility) is a failure.
bool usable_anytime(const lp::Solution& s) {
  return s.status == lp::SolveStatus::kDeadline && !s.x.empty();
}

lp::Solution solve_exact(const lp::Problem& p, const LpHtaOptions& options,
                         const std::vector<double>* guess = nullptr) {
  const std::size_t budget = options.max_lp_iterations;
  if (options.engine == LpEngine::kInteriorPoint) {
    lp::InteriorPointOptions ipm;
    if (budget > 0) ipm.max_iterations = budget;
    ipm.sparse_mode = options.sparse_mode;
    ipm.cancel = options.cancel;
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
  smx.sparse_pricing = options.sparse_mode;
  smx.pricing = options.pricing;
  smx.basis = options.basis;
  smx.cancel = options.cancel;
  const lp::SimplexSolver solver(smx);
  const lp::Solution s = guess != nullptr ? solver.solve(p, *guess)
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

// Whether Step 1 starts from ClusterLp::crash. Presolve and equilibration
// reindex / rescale the variable space the crash point lives in, and the
// IPM takes no start point, so only the plain simplex path uses it.
bool crash_started(const LpHtaOptions& options) {
  return options.engine == LpEngine::kSimplex && !options.presolve &&
         !options.equilibrate;
}

lp::Solution solve_relaxation(const ClusterLp& cluster,
                              const LpHtaOptions& options) {
  const lp::Problem& p = cluster.problem;
  // Optional hygiene layers; both are objective-preserving transforms.
  if (options.presolve) {
    const lp::Presolved pre = lp::presolve(p);
    if (pre.infeasible()) {
      throw SolverError("LP-HTA: presolve proved the relaxation infeasible");
    }
    if (options.equilibrate) {
      const lp::ScaledProblem sp = lp::equilibrate(pre.reduced());
      return pre.restore(sp.unscale(solve_exact(sp.problem(), options),
                                    pre.reduced()));
    }
    return pre.restore(solve_exact(pre.reduced(), options));
  }
  if (options.equilibrate) {
    const lp::ScaledProblem sp = lp::equilibrate(p);
    return sp.unscale(solve_exact(sp.problem(), options), p);
  }
  return solve_exact(p, options,
                     crash_started(options) ? &cluster.crash : nullptr);
}

// Everything one cluster contributes: its tasks' decisions plus its share
// of the Theorem-2 diagnostics. Clusters are independent (Sec. III.A), so
// these can be computed in parallel and merged.
struct ClusterOutcome {
  std::vector<std::pair<std::size_t, Decision>> decisions;
  double lp_objective = 0.0;
  double rounded_energy = 0.0;
  std::size_t cancelled_infeasible = 0;
  std::size_t cancelled_capacity = 0;
  std::size_t lp_iterations = 0;
  // The relaxation ran out of budget and served its anytime point.
  bool deadline_degraded = false;
};

// Renders the per-cluster span args only when a trace is being captured —
// the string build is not free and the spans are per-cluster-per-epoch.
std::string cluster_args(std::size_t b) {
  return obs::Tracer::global().enabled() ? "\"station\":" + std::to_string(b)
                                         : std::string();
}

ClusterOutcome solve_cluster(const HtaInstance& instance, std::size_t b,
                             const LpHtaOptions& options) {
  const obs::ScopedTimer cluster_span("lp_hta.cluster", "assign",
                                      cluster_args(b));
  const mec::Topology& topo = instance.topology();
  ClusterOutcome out;

  // Local decision buffer for the cluster's tasks.
  std::map<std::size_t, Decision> decide;

  // ---- Pre-Step + Step 1: the LP relaxation P2 for this cluster (see
  // cluster_lp.h). Tasks with no deadline-feasible placement are cancelled
  // eagerly (the paper's Step-4 "cancel and inform users"); each remaining
  // task gets a cancel-slack column (a documented deviation from the
  // literal P2 that keeps the LP feasible under deadline-capacity
  // interactions; with no cancellation pressure the relaxation is exactly
  // P2).
  const ClusterLp cluster = build_cluster_lp(instance, b);
  for (std::size_t t : cluster.unschedulable) {
    decide[t] = Decision::kCancelled;
    ++out.cancelled_infeasible;
  }
  const std::vector<std::size_t>& active = cluster.active;
  if (active.empty()) {
    for (const auto& [t, d] : decide) out.decisions.emplace_back(t, d);
    return out;
  }
  const lp::Problem& p = cluster.problem;

  lp::Solution relax;
  {
    // Step 1 — the paper's "solve the relaxation" phase. The nested
    // lp.presolve / lp.simplex.solve / lp.ipm.solve spans decompose it.
    const obs::ScopedTimer relax_span("lp_hta.relax", "assign",
                                      cluster_args(b));
    relax = solve_relaxation(cluster, options);
  }
  out.lp_iterations = relax.iterations;
  out.deadline_degraded = relax.status == lp::SolveStatus::kDeadline;
  // E_LP^(OPT) over the *real* placement columns (the cancel slack's
  // penalty is an artifact, not energy).
  for (std::size_t idx = 0; idx < active.size(); ++idx) {
    for (std::size_t l = 0; l < 3; ++l) {
      out.lp_objective += p.cost(column(idx, l)) * relax.x[column(idx, l)];
    }
  }

  // Step 4–6 migrations (deadline repair + capacity evictions), reported
  // as the "repair pressure" of this cluster.
  std::size_t repair_moves = 0;

  // ---- Steps 2+3: round each task to argmax_l X[i,j,l] (the cancel slack
  // competes too; tasks rounding to it are cancelled).
  {
    const obs::ScopedTimer round_span("lp_hta.round", "assign",
                                      cluster_args(b));
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const std::size_t t = active[idx];
      std::size_t q = 0;
      for (std::size_t l = 1; l < 4; ++l) {
        if (relax.x[column(idx, l)] > relax.x[column(idx, q)]) q = l;
      }
      if (q == 3) {
        decide[t] = Decision::kCancelled;
        ++out.cancelled_capacity;
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
          if (best == 3 ||
              relax.x[column(idx, l)] > relax.x[column(idx, best)]) {
            best = l;
          }
        }
        q = best;  // best < 3 by schedulability
        ++repair_moves;
      }
      decide[t] = to_decision(kPlacements[q]);
    }
  }

  const obs::ScopedTimer repair_span("lp_hta.repair", "assign",
                                     cluster_args(b));

  // ---- Step 5: per-device capacity repair.
  for (const std::size_t device : cluster.device_ids) {
    std::vector<std::size_t> local;  // tasks of this device placed locally
    double load = 0.0;
    for (std::size_t t : active) {
      if (instance.task(t).id.user == device &&
          decide[t] == Decision::kLocal) {
        local.push_back(t);
        load += instance.task(t).resource;
      }
    }
    const double cap = topo.device(device).max_resource;
    // Largest resource first, per the paper's greedy selection.
    std::sort(local.begin(), local.end(), [&](std::size_t a, std::size_t c) {
      return instance.task(a).resource > instance.task(c).resource;
    });
    // Pass 1: migrate to the base station when its latency fits.
    for (std::size_t t : local) {
      if (load <= cap) break;
      if (instance.meets_deadline(t, Placement::kEdge)) {
        decide[t] = Decision::kEdge;
        load -= instance.task(t).resource;
        ++repair_moves;
      }
    }
    // Pass 2: still over — cancel greedily by resource occupation.
    for (std::size_t t : local) {
      if (load <= cap) break;
      if (decide[t] == Decision::kLocal) {
        decide[t] = Decision::kCancelled;
        ++out.cancelled_capacity;
        load -= instance.task(t).resource;
        ++repair_moves;
      }
    }
  }

  // ---- Step 6: station capacity repair.
  {
    std::vector<std::size_t> on_edge;
    double load = 0.0;
    for (std::size_t t : active) {
      if (decide[t] == Decision::kEdge) {
        on_edge.push_back(t);
        load += instance.task(t).resource;
      }
    }
    const double cap = topo.base_station(b).max_resource;
    std::sort(on_edge.begin(), on_edge.end(),
              [&](std::size_t a, std::size_t c) {
                return instance.task(a).resource > instance.task(c).resource;
              });
    for (std::size_t t : on_edge) {
      if (load <= cap) break;
      if (instance.meets_deadline(t, Placement::kCloud)) {
        decide[t] = Decision::kCloud;
        load -= instance.task(t).resource;
        ++repair_moves;
      }
    }
    for (std::size_t t : on_edge) {
      if (load <= cap) break;
      if (decide[t] == Decision::kEdge) {
        decide[t] = Decision::kCancelled;
        ++out.cancelled_capacity;
        load -= instance.task(t).resource;
        ++repair_moves;
      }
    }
  }

  obs::Registry& reg = obs::Registry::global();
  reg.counter("lp_hta.clusters_solved").add();
  reg.counter("lp_hta.repair_moves").add(repair_moves);
  reg.counter("lp_hta.cancelled_infeasible").add(out.cancelled_infeasible);
  reg.counter("lp_hta.cancelled_capacity").add(out.cancelled_capacity);

  out.decisions.reserve(decide.size());
  for (const auto& [t, d] : decide) out.decisions.emplace_back(t, d);
  return out;
}

}  // namespace

Assignment LpHta::assign(const HtaInstance& instance) const {
  LpHtaReport unused;
  return assign_with_report(instance, unused);
}

Assignment LpHta::assign(const HtaInstance& instance,
                         const CancellationToken& cancel) const {
  if (cancel.unlimited()) return assign(instance);
  LpHtaOptions budgeted = options_;
  // The caller's token wins (its cancel flag is honoured), tightened to the
  // sooner of the two deadlines when the options carry one as well.
  budgeted.cancel = cancel.with_deadline(options_.cancel.deadline());
  LpHtaReport unused;
  return LpHta(budgeted).assign_with_report(instance, unused);
}

Assignment LpHta::assign_with_report(const HtaInstance& instance,
                                     LpHtaReport& report) const {
  const obs::ScopedTimer span("lp_hta.assign", "assign");
  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const std::uint64_t chaos_before =
      flight.enabled() ? chaos::local_injections() : 0;
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
        obs::FlightRecorder::residual_ms(options_.cancel.deadline());
    r.deadline_hit = degraded;
    r.warm_start = crash_started(options_);
    r.chaos_hits = chaos::local_injections() - chaos_before;
    r.audit = audit_verdict;
    flight.record(std::move(r));
  };
  report = LpHtaReport{};
  Assignment out;
  out.decisions.assign(instance.num_tasks(), Decision::kCancelled);
  const std::size_t clusters = instance.topology().num_base_stations();

  std::vector<ClusterOutcome> outcomes(clusters);
  try {
    if (options_.parallel_clusters && clusters > 1) {
      std::vector<std::future<void>> futures;
      futures.reserve(clusters);
      for (std::size_t b = 0; b < clusters; ++b) {
        if (instance.cluster_tasks(b).empty()) continue;
        futures.emplace_back(std::async(std::launch::async, [&, b] {
          outcomes[b] = solve_cluster(instance, b, options_);
        }));
      }
      for (std::future<void>& f : futures) f.get();
    } else {
      for (std::size_t b = 0; b < clusters; ++b) {
        if (instance.cluster_tasks(b).empty()) continue;
        outcomes[b] = solve_cluster(instance, b, options_);
      }
    }
  } catch (const SolverError& e) {
    if (flight.enabled()) cut_record("error", e.what(), "", 0, false);
    throw;
  }

  bool deadline_degraded = false;
  for (const ClusterOutcome& c : outcomes) {
    for (const auto& [t, d] : c.decisions) out.decisions[t] = d;
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
