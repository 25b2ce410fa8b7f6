#include "lp/simplex.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/chaos_hook.h"
#include "common/error.h"
#include "common/rng.h"
#include "lp/problem.h"
#include "obs/registry.h"

namespace mecsched::lp {
namespace {

TEST(SimplexTest, EmptyProblemIsOptimal) {
  const Solution s = SimplexSolver().solve(Problem{});
  EXPECT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(SimplexTest, UnconstrainedBoundedVariablesSitAtBestBound) {
  Problem p;
  p.add_variable(1.0, 0.0, 5.0);    // min +x  -> 0
  p.add_variable(-2.0, 1.0, 3.0);   // min -2y -> y = 3
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 0.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
  EXPECT_NEAR(s.objective, -6.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariableLP) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier-Lieberman)
  // optimum (2, 6), value 36.
  Problem p;
  const auto x = p.add_variable(-3.0, 0.0, kInfinity);
  const auto y = p.add_variable(-5.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 6.0, 1e-8);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraints) {
  // min x + 2y s.t. x + y = 3, x - y = 1 -> x=2, y=1, obj=4.
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, kInfinity);
  const auto y = p.add_variable(2.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEqual, 1.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-8);
  EXPECT_NEAR(s.x[1], 1.0, 1e-8);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

TEST(SimplexTest, GreaterEqualConstraints) {
  // min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4,0)? obj 8 vs y=3,x=1 obj 11.
  Problem p;
  const auto x = p.add_variable(2.0, 0.0, kInfinity);
  const auto y = p.add_variable(3.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 4.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 8.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 2.0);  // x<=1 forced >=2
  const Solution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  Problem p;
  const auto x = p.add_variable(0.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kEqual, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kEqual, 2.0);
  EXPECT_EQ(SimplexSolver().solve(p).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  Problem p;
  const auto x = p.add_variable(-1.0, 0.0, kInfinity);  // min -x, x free up
  p.add_constraint({{x, -1.0}}, Relation::kLessEqual, 0.0);  // -x <= 0 (no cap)
  const Solution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, UpperBoundedVariablesUseBoundFlips) {
  // max x1 + 2x2 + 3x3, xi in [0,1], x1+x2+x3 <= 2
  // -> x3=1, x2=1, x1=0; obj -5.
  Problem p;
  std::vector<std::size_t> v;
  for (double c : {-1.0, -2.0, -3.0}) v.push_back(p.add_variable(c, 0.0, 1.0));
  p.add_constraint({{v[0], 1.0}, {v[1], 1.0}, {v[2], 1.0}},
                   Relation::kLessEqual, 2.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -5.0, 1e-8);
  EXPECT_NEAR(s.x[0], 0.0, 1e-8);
  EXPECT_NEAR(s.x[1], 1.0, 1e-8);
  EXPECT_NEAR(s.x[2], 1.0, 1e-8);
}

TEST(SimplexTest, NonzeroLowerBounds) {
  // min x + y, x in [2, 10], y in [3, 10], x + y >= 7 -> (2,5) or (4,3): obj 7.
  Problem p;
  const auto x = p.add_variable(1.0, 2.0, 10.0);
  const auto y = p.add_variable(1.0, 3.0, 10.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 7.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, 7.0, 1e-8);
  EXPECT_GE(s.x[0], 2.0 - 1e-9);
  EXPECT_GE(s.x[1], 3.0 - 1e-9);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // A classically degenerate LP (multiple constraints active at origin).
  Problem p;
  const auto x = p.add_variable(-0.75, 0.0, kInfinity);
  const auto y = p.add_variable(150.0, 0.0, kInfinity);
  const auto z = p.add_variable(-0.02, 0.0, kInfinity);
  const auto w = p.add_variable(6.0, 0.0, kInfinity);
  // Beale's cycling example.
  p.add_constraint({{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint({{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}},
                   Relation::kLessEqual, 0.0);
  p.add_constraint({{z, 1.0}}, Relation::kLessEqual, 1.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -0.05, 1e-8);
}

TEST(SimplexTest, SolutionIsAlwaysFeasible) {
  Problem p;
  const auto x = p.add_variable(-1.0, 0.0, 2.0);
  const auto y = p.add_variable(-1.0, 0.0, 2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 3.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_LE(p.max_violation(s.x), 1e-7);
  EXPECT_NEAR(s.objective, -3.0, 1e-8);
}

TEST(SimplexTest, FixedVariableViaEqualBounds) {
  Problem p;
  const auto x = p.add_variable(5.0, 2.0, 2.0);  // pinned to 2
  const auto y = p.add_variable(1.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 5.0);
  const Solution s = SimplexSolver().solve(p);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-8);
}

// The Hillier-Lieberman LP of ClassicTwoVariableLP, reused by the warm-
// start tests below.
Problem classic_lp() {
  Problem p;
  const auto x = p.add_variable(-3.0, 0.0, kInfinity);
  const auto y = p.add_variable(-5.0, 0.0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  return p;
}

TEST(SimplexTest, WarmStartNeverChangesTheOptimum) {
  const Problem p = classic_lp();
  const Solution cold = SimplexSolver().solve(p);
  ASSERT_TRUE(cold.optimal());
  // Whatever the guess — the optimum, a wrong vertex, an infeasible point —
  // the warm solve must land on the same objective.
  const std::vector<std::vector<double>> guesses = {
      {2.0, 6.0},     // the optimum itself
      {4.0, 0.0},     // a different vertex
      {100.0, -5.0},  // nowhere near feasible
      {0.0, 0.0},     // the cold start's own point
  };
  for (const auto& guess : guesses) {
    const Solution warm = SimplexSolver().solve(p, guess);
    ASSERT_TRUE(warm.optimal());
    EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
    EXPECT_NEAR(warm.x[0], cold.x[0], 1e-8);
    EXPECT_NEAR(warm.x[1], cold.x[1], 1e-8);
  }
}

TEST(SimplexTest, WarmStartHandlesBoundedAndEqualityRows) {
  // min x + 2y s.t. x + y = 3, x - y = 1 -> x=2, y=1 (equality rows get no
  // slack, so the crash start must fall back to artificials there).
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, 10.0);
  const auto y = p.add_variable(2.0, 0.0, 10.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 3.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEqual, 1.0);
  const Solution warm = SimplexSolver().solve(p, {9.5, 9.5});
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.x[0], 2.0, 1e-8);
  EXPECT_NEAR(warm.x[1], 1.0, 1e-8);
  EXPECT_NEAR(warm.objective, 4.0, 1e-8);
}

// The Step-1 shape of LP-HTA: one sum-to-one equality row per task over
// (local, edge, cloud, cancel), a "<=" row per device over its tasks'
// local columns and one station row over the edge columns. With loose
// capacities the crash point (every task on its cheapest column) is the
// optimum, and the structural crash makes it the start basis: the slacks
// are basic in the capacity rows and each task's chosen column in its
// equality row, so neither phase pivots.
TEST(SimplexTest, WarmStartAtTheOptimumTakesNoPivots) {
  mecsched::Rng rng(17);
  constexpr std::size_t kTasks = 24;
  constexpr std::size_t kTasksPerDevice = 3;
  Problem p;
  std::vector<double> crash;
  for (std::size_t t = 0; t < kTasks; ++t) {
    std::size_t cheapest = 0;
    for (std::size_t l = 0; l < 4; ++l) {
      const double cost = l < 3 ? rng.uniform(0.1, 10.0) : 100.0;
      p.add_variable(cost, 0.0, 1.0);
      if (cost < p.cost(4 * t + cheapest)) cheapest = l;
    }
    crash.resize(p.num_variables(), 0.0);
    crash[4 * t + cheapest] = 1.0;
    p.add_constraint({{4 * t, 1.0}, {4 * t + 1, 1.0}, {4 * t + 2, 1.0},
                      {4 * t + 3, 1.0}},
                     Relation::kEqual, 1.0);
  }
  std::vector<Term> station;
  for (std::size_t d = 0; d < kTasks / kTasksPerDevice; ++d) {
    std::vector<Term> device;
    for (std::size_t t = d * kTasksPerDevice; t < (d + 1) * kTasksPerDevice;
         ++t) {
      device.push_back({4 * t, rng.uniform(0.5, 2.0)});
      station.push_back({4 * t + 1, rng.uniform(0.5, 2.0)});
    }
    p.add_constraint(std::move(device), Relation::kLessEqual, 10.0);
  }
  p.add_constraint(std::move(station), Relation::kLessEqual, 100.0);

  const Solution cold = SimplexSolver().solve(p);
  ASSERT_TRUE(cold.optimal());
  EXPECT_GT(cold.iterations, 0u);
  const Solution warm = SimplexSolver().solve(p, crash);
  ASSERT_TRUE(warm.optimal());
  EXPECT_EQ(warm.iterations, 0u);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * (1.0 + cold.objective));
  EXPECT_EQ(warm.x, crash);
}

// A column that spans two equality rows cannot stand in for either row's
// artificial (the basis would no longer be triangular), so the crash keeps
// those artificials and phase 1 ejects them; the answer is the cold one.
TEST(SimplexTest, CrashKeepsArtificialWhenColumnSpansTwoEqualityRows) {
  // min x + 2y + 3z s.t. x + y = 1, x - y + z = 1 -> x = 1, y = z = 0.
  // The guess x = 1 satisfies both rows. Row 1 can take z (it touches no
  // other row); row 0 has only x and y, which both also touch row 1.
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, 1.0);
  const auto y = p.add_variable(2.0, 0.0, 1.0);
  const auto z = p.add_variable(3.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}, {z, 1.0}}, Relation::kEqual, 1.0);
  const Solution cold = SimplexSolver().solve(p);
  ASSERT_TRUE(cold.optimal());
  const Solution warm = SimplexSolver().solve(p, {1.0, 0.0, 0.0});
  ASSERT_TRUE(warm.optimal());
  EXPECT_GT(warm.iterations, 0u);  // row 0's artificial still leaves
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i) {
    EXPECT_NEAR(warm.x[i], cold.x[i], 1e-9) << "x" << i;
  }
}

// min x + 2y s.t. x + y = 1 with the guess x = 1: the crash makes x basic
// in the row, so no artificial is basic at the start.
Problem one_row_lp() {
  Problem p;
  const auto x = p.add_variable(1.0, 0.0, 1.0);
  const auto y = p.add_variable(2.0, 0.0, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEqual, 1.0);
  return p;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// lp.simplex.crash_feasible counts solves whose start basis holds no
// artificial; lp.simplex.phase1_pivots counts the pivots made before
// phase 2 begins.
TEST(SimplexTest, PhaseOneCountersSplitCrashFeasibleStarts) {
  using Deltas = std::pair<std::uint64_t, std::uint64_t>;
  const auto run = [](const Problem& p, const std::vector<double>* guess) {
    const std::uint64_t feasible0 = counter("lp.simplex.crash_feasible");
    const std::uint64_t phase1_0 = counter("lp.simplex.phase1_pivots");
    const Solution s = guess != nullptr ? SimplexSolver().solve(p, *guess)
                                        : SimplexSolver().solve(p);
    EXPECT_TRUE(s.optimal());
    return Deltas{counter("lp.simplex.crash_feasible") - feasible0,
                  counter("lp.simplex.phase1_pivots") - phase1_0};
  };
  const std::vector<double> at_x = {1.0, 0.0};
  EXPECT_EQ(run(one_row_lp(), &at_x), (Deltas{1, 0}));
  // Cold, the row starts on its artificial and phase 1 pivots it out.
  EXPECT_EQ(run(one_row_lp(), nullptr), (Deltas{0, 1}));
}

// Records every probe and answers the first one with `first`.
class FirstProbeHook : public chaos::Hook {
 public:
  explicit FirstProbeHook(chaos::Action first) : first_(first) {}
  chaos::Action probe(const char*, std::size_t, std::size_t,
                      std::size_t iteration) override {
    iterations.push_back(iteration);
    return iterations.size() == 1 ? first_ : chaos::Action::kNone;
  }
  std::vector<std::size_t> iterations;

 private:
  chaos::Action first_;
};

struct Armed {
  explicit Armed(chaos::Hook* hook) { chaos::arm(hook); }
  ~Armed() { chaos::arm(nullptr); }
};

// From a start with no artificial basic, phase 1 ends without pricing,
// but its one pass still makes the budget check and the chaos probe: a
// fault injected there lands exactly as when phase 1 priced.
TEST(SimplexTest, CrashFeasibleStartStillProbesInPhaseOne) {
  const Problem p = one_row_lp();
  const std::vector<double> guess = {1.0, 0.0};
  {
    FirstProbeHook hook(chaos::Action::kNone);
    const Armed armed(&hook);
    const Solution s = SimplexSolver().solve(p, guess);
    ASSERT_TRUE(s.optimal());
    EXPECT_EQ(s.iterations, 0u);
    // Phase 1's pass and phase 2's pass, both at iteration 0.
    EXPECT_EQ(hook.iterations, (std::vector<std::size_t>{0, 0}));
  }
  {
    FirstProbeHook hook(chaos::Action::kStall);
    const Armed armed(&hook);
    const Solution s = SimplexSolver().solve(p, guess);
    EXPECT_EQ(s.status, SolveStatus::kDeadline);
    EXPECT_TRUE(s.x.empty());  // stopped in phase 1
  }
  for (const chaos::Action fault :
       {chaos::Action::kPoisonNan, chaos::Action::kError}) {
    FirstProbeHook hook(fault);
    const Armed armed(&hook);
    EXPECT_THROW(SimplexSolver().solve(p, guess), SolverError);
  }
}

TEST(SimplexTest, WarmStartGuessSizeMismatchThrows) {
  const Problem p = classic_lp();
  EXPECT_THROW(SimplexSolver().solve(p, {1.0}), ModelError);
  EXPECT_THROW(SimplexSolver().solve(p, {1.0, 2.0, 3.0}), ModelError);
}

}  // namespace
}  // namespace mecsched::lp
