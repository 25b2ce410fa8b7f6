// Allocation-count regression test for the arena-backed solve state: a
// warm-started re-solve on a warmed-up thread must perform ZERO heap
// allocations inside the simplex pivot loop. This binary overrides the
// global operator new/delete to count allocations made while the solver's
// PivotLoopScope is active (lp/workspace.h) — which is why it is its own
// test binary and not part of lp_test.
//
// The contract being locked in: after the first solves of a shape have
// grown the workspace arena and the BasisLu pools to their high-water
// marks, re-entries (the crash-started Step-1 cluster solves of every
// sweep cell and serve shard) run the entire pivot loop — pricing,
// FTRAN/BTRAN, ratio test, eta updates and refactorizations — out of
// reused capacity.
//
// A second counting scope (BuildScope) counts every allocation made while
// it is open. It locks in that the Step-1 cluster LP build
// (assign/cluster_lp.h) sizes its row store up front: the number of heap
// blocks it takes does not grow with the cluster's task count.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "assign/cluster_lp.h"
#include "assign/hta_instance.h"
#include "common/rng.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp/workspace.h"
#include "workload/scenario.h"

namespace {
// Plain (not atomic) counters: the test is single-threaded and the
// override must itself stay allocation-free.
std::uint64_t g_pivot_loop_allocs = 0;
std::uint64_t g_pivot_loop_alloc_bytes = 0;
bool g_build_scope_open = false;
std::uint64_t g_build_allocs = 0;

void* counted_alloc(std::size_t size) {
  if (mecsched::lp::pivot_loop_active()) {
    ++g_pivot_loop_allocs;
    g_pivot_loop_alloc_bytes += size;
  }
  if (g_build_scope_open) ++g_build_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms too (std::stable_sort's buffer uses them), so every
// block the frees below release came from counted_alloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mecsched::lp {
namespace {

// The HTA cluster shape the sweep re-solves thousands of times.
Problem hta_shaped_lp(mecsched::Rng& rng, std::size_t tasks,
                      std::size_t capacity_rows) {
  Problem p;
  std::vector<std::array<std::size_t, 3>> vars(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t l = 0; l < 3; ++l) {
      vars[t][l] = p.add_variable(rng.uniform(0.1, 10.0), 0.0, 1.0);
    }
    p.add_constraint({{vars[t][0], 1.0}, {vars[t][1], 1.0}, {vars[t][2], 1.0}},
                     Relation::kEqual, 1.0);
  }
  for (std::size_t c = 0; c < capacity_rows; ++c) {
    std::vector<Term> cap;
    for (std::size_t t = c; t < tasks; t += capacity_rows) {
      cap.push_back({vars[t][c % 3], rng.uniform(0.5, 2.0)});
    }
    if (cap.empty()) continue;
    p.add_constraint(std::move(cap), Relation::kLessEqual,
                     static_cast<double>(tasks));
  }
  return p;
}

TEST(WorkspaceAllocTest, ProbeIsInertOutsidePivotLoop) {
  EXPECT_FALSE(pivot_loop_active());
  const std::uint64_t before = g_pivot_loop_allocs;
  delete[] new double[64];  // not inside a pivot loop: not counted
  EXPECT_EQ(g_pivot_loop_allocs, before);
  {
    internal::PivotLoopScope scope;
    EXPECT_TRUE(pivot_loop_active());
    delete[] new double[64];  // inside: counted
  }
  EXPECT_FALSE(pivot_loop_active());
  EXPECT_EQ(g_pivot_loop_allocs, before + 1);
}

TEST(WorkspaceAllocTest, WarmResolvePivotLoopIsAllocationFree) {
  mecsched::Rng rng(4242);
  const Problem p = hta_shaped_lp(rng, 40, 4);
  const SimplexSolver solver;  // defaults: kEtaLu, Dantzig, kAuto pricing

  // Warm-start hint: placement 0 for every task.
  std::vector<double> guess(p.num_variables(), 0.0);
  for (std::size_t i = 0; i < guess.size(); i += 3) guess[i] = 1.0;

  // Cold solve, then a warm re-solve: these grow the thread's workspace
  // arena and the BasisLu pools to the shape's high-water marks.
  const Solution cold = solver.solve(p);
  ASSERT_TRUE(cold.optimal());
  const Solution prime = solver.solve(p, guess);
  ASSERT_TRUE(prime.optimal());

  // The measured warm re-solve: identical shape, warmed thread. Nothing in
  // the pivot loop may touch the heap.
  g_pivot_loop_allocs = 0;
  g_pivot_loop_alloc_bytes = 0;
  const Solution warm = solver.solve(p, guess);
  ASSERT_TRUE(warm.optimal());
  EXPECT_DOUBLE_EQ(warm.objective, prime.objective);
  EXPECT_EQ(g_pivot_loop_allocs, 0u)
      << "warm re-solve allocated " << g_pivot_loop_alloc_bytes
      << " bytes inside the pivot loop";
}

TEST(WorkspaceAllocTest, SteadyStateResolvesStayAllocationFree) {
  // A burst of re-solves across several related shapes (the sweep pattern:
  // neighbouring cells differ slightly). After one priming pass per shape,
  // every further pivot loop must be heap-free.
  std::vector<Problem> cells;
  for (int s = 0; s < 4; ++s) {
    mecsched::Rng rng(900 + static_cast<std::uint64_t>(s));
    cells.push_back(hta_shaped_lp(rng, 24 + 4 * static_cast<std::size_t>(s), 3));
  }
  const SimplexSolver solver;
  for (const Problem& p : cells) ASSERT_TRUE(solver.solve(p).optimal());

  g_pivot_loop_allocs = 0;
  for (int round = 0; round < 3; ++round) {
    for (const Problem& p : cells) ASSERT_TRUE(solver.solve(p).optimal());
  }
  EXPECT_EQ(g_pivot_loop_allocs, 0u);
}

// Counts the allocations made while it is alive.
class BuildScope {
 public:
  BuildScope() {
    g_build_allocs = 0;
    g_build_scope_open = true;
  }
  ~BuildScope() { g_build_scope_open = false; }
  BuildScope(const BuildScope&) = delete;
  BuildScope& operator=(const BuildScope&) = delete;
  std::uint64_t allocations() const { return g_build_allocs; }
};

// Heap allocations of build_cluster_lp for a one-station city whose
// cluster holds `tasks` tasks.
std::uint64_t cluster_build_allocations(std::size_t tasks) {
  workload::ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.num_tasks = tasks;
  cfg.num_devices = tasks / 2;
  cfg.num_base_stations = 1;
  const workload::Scenario s = workload::make_scenario(cfg);
  const assign::HtaInstance instance(s.topology, s.tasks);
  std::uint64_t allocations = 0;
  std::size_t active = 0;
  {
    const BuildScope scope;
    const assign::ClusterLp lp = assign::build_cluster_lp(instance, 0);
    allocations = scope.allocations();
    active = lp.active.size();
  }
  EXPECT_EQ(active, tasks);  // every task schedulable: same blocks used
  return allocations;
}

TEST(WorkspaceAllocTest, ClusterLpBuildAllocationsDoNotGrowWithTasks) {
  const std::uint64_t small = cluster_build_allocations(20);
  const std::uint64_t large = cluster_build_allocations(200);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace mecsched::lp
