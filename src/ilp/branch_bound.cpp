#include "ilp/branch_bound.h"

#include <cmath>
#include <limits>

#include "common/chaos_hook.h"
#include "common/error.h"
#include "obs/registry.h"

namespace mecsched::ilp {
namespace {

// A relaxation value within this of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;
// Nodes whose LP bound is within this of the incumbent are pruned.
constexpr double kObjectiveTolerance = 1e-9;

// A node is the root problem plus tightened bounds on the integer vars,
// carrying its parent relaxation's objective as a proven lower bound on
// every completion below it (-infinity for the root).
struct Node {
  std::vector<double> lo;
  std::vector<double> hi;
  double bound = -std::numeric_limits<double>::infinity();
};

// A copy of `base` with the node's bounds.
lp::Problem with_bounds(const lp::Problem& base, const Node& node) {
  lp::Problem p = base;
  for (std::size_t v = 0; v < p.num_variables(); ++v) {
    p.set_bounds(v, node.lo[v], node.hi[v]);
  }
  return p;
}

}  // namespace

BnbResult BranchAndBound::solve(
    const lp::Problem& problem,
    const std::vector<std::size_t>& integer_vars) const {
  for (std::size_t v : integer_vars) {
    MECSCHED_REQUIRE(v < problem.num_variables(),
                     "integer variable index out of range");
    MECSCHED_REQUIRE(std::isfinite(problem.upper(v)),
                     "integer variables must be bounded");
  }

  const CancellationToken token = effective_solve_token(options_.cancel);
  lp::SimplexOptions lp_options;
  lp_options.cancel = token;  // node relaxations share the search budget
  const lp::SimplexSolver solver(lp_options);
  BnbResult best;
  double incumbent = std::numeric_limits<double>::infinity();

  Node root;
  root.lo.resize(problem.num_variables());
  root.hi.resize(problem.num_variables());
  for (std::size_t v = 0; v < problem.num_variables(); ++v) {
    root.lo[v] = problem.lower(v);
    root.hi[v] = problem.upper(v);
  }

  // DFS stack; iterable so an early stop can report the proven bound over
  // the unexplored frontier.
  std::vector<Node> open;
  open.push_back(std::move(root));

  // Stops with the incumbent found so far; the proven lower bound is the
  // min over the incumbent and every open node's inherited bound.
  const auto stop_early = [&](BnbStatus status) {
    best.status = status;
    double bound = incumbent;
    for (const Node& nd : open) bound = std::min(bound, nd.bound);
    best.best_bound = bound;
    if (status == BnbStatus::kDeadline) {
      obs::Registry& reg = obs::Registry::global();
      reg.counter("solve.deadline.bnb").add();
      if (options_.cancel.cancel_requested()) {
        reg.counter("solve.cancelled").add();
      }
      reg.gauge("ilp.bnb.last_gap").set(best.bound_gap());
    }
    return best;
  };

  while (!open.empty()) {
    if (token.expired()) return stop_early(BnbStatus::kDeadline);
    if (chaos::armed()) {
      switch (chaos::probe("bnb", problem.num_constraints(),
                           problem.num_variables(), best.nodes_explored)) {
        case chaos::Action::kNone:
          break;
        case chaos::Action::kStall:
        case chaos::Action::kCancel:
          return stop_early(BnbStatus::kDeadline);
        case chaos::Action::kPoisonNan:
        case chaos::Action::kError:
          throw SolverError("branch-and-bound: injected solver fault");
      }
    }
    if (best.nodes_explored >= options_.max_nodes) {
      // Any incumbent found so far is kept in `best`, but optimality is
      // unproven.
      return stop_early(BnbStatus::kNodeLimit);
    }
    const Node node = open.back();
    open.pop_back();
    ++best.nodes_explored;

    // Bound infeasibility can be introduced by branching (lo > hi).
    bool bounds_ok = true;
    for (std::size_t v = 0; v < node.lo.size(); ++v) {
      if (node.lo[v] > node.hi[v]) {
        bounds_ok = false;
        break;
      }
    }
    if (!bounds_ok) continue;

    const lp::Problem sub = with_bounds(problem, node);
    const lp::Solution relax = solver.solve(sub);
    if (relax.status == lp::SolveStatus::kInfeasible) continue;
    if (relax.status == lp::SolveStatus::kUnbounded) {
      // An unbounded relaxation of a node would make the MIP unbounded;
      // our use cases are always bounded, so treat it as a modelling bug.
      throw SolverError("branch-and-bound: unbounded LP relaxation");
    }
    if (relax.status == lp::SolveStatus::kDeadline) {
      // The budget ran out inside the node LP. The node is unexplored:
      // put it back so its bound counts toward the reported gap.
      open.push_back(node);
      return stop_early(BnbStatus::kDeadline);
    }
    if (relax.status != lp::SolveStatus::kOptimal) continue;
    if (relax.objective >= incumbent - kObjectiveTolerance) continue;

    // Branch on the most fractional integer variable (closest to 0.5).
    std::size_t branch_var = problem.num_variables();
    double best_dist = kIntegralityTolerance;
    for (std::size_t v : integer_vars) {
      const double frac = relax.x[v] - std::floor(relax.x[v]);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist > best_dist) {
        best_dist = dist;
        branch_var = v;
      }
    }

    if (branch_var == problem.num_variables()) {
      // Integral: new incumbent (strict improvement guaranteed by bound
      // check above).
      incumbent = relax.objective;
      best.objective = relax.objective;
      best.x = relax.x;
      // Snap near-integral values exactly.
      for (std::size_t v : integer_vars) best.x[v] = std::round(best.x[v]);
      best.status = BnbStatus::kOptimal;
      continue;
    }

    const double xval = relax.x[branch_var];
    Node down = node;
    down.hi[branch_var] = std::floor(xval);
    down.bound = relax.objective;
    Node up = node;
    up.lo[branch_var] = std::ceil(xval);
    up.bound = relax.objective;
    // DFS, exploring the side nearer the fractional value first (pushed
    // last so it pops first).
    if (xval - std::floor(xval) > 0.5) {
      open.push_back(std::move(down));
      open.push_back(std::move(up));
    } else {
      open.push_back(std::move(up));
      open.push_back(std::move(down));
    }
  }

  if (!std::isfinite(incumbent)) {
    best.status = BnbStatus::kInfeasible;
  } else {
    best.best_bound = best.objective;  // search exhausted: bound is tight
  }
  return best;
}

}  // namespace mecsched::ilp
