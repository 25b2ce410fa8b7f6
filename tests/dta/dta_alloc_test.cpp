// Allocation regression test for the divisible-task pipeline. This binary
// overrides the global operator new/delete to count the heap blocks and
// bytes taken while a counting scope is open — which is why it is its own
// test binary and not part of dta_test.
//
// The contracts being locked in:
//   * run_dta builds its partial tasks once, in the result, and the
//     HtaInstance borrows them there; no second copy of the task array is
//     ever made.
//   * the OwnerIndex build takes a fixed number of heap blocks, however
//     large the item sets are.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dta/data_model.h"
#include "dta/pipeline.h"
#include "mec/cost_model.h"
#include "workload/shared_data.h"

namespace {
// Plain (not atomic) counters: the test is single-threaded and the
// override must itself stay allocation-free.
bool g_scope_open = false;
std::uint64_t g_blocks = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t size) {
  if (g_scope_open) {
    ++g_blocks;
    g_bytes += size;
  }
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

namespace mecsched::dta {
namespace {

// Counts every heap block (and its bytes) taken while it is alive.
class CountScope {
 public:
  CountScope() {
    g_blocks = 0;
    g_bytes = 0;
    g_scope_open = true;
  }
  ~CountScope() { g_scope_open = false; }
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;
};

// A Fig. 5(a)-sized scenario: 50 devices, 5 stations, 600 items.
SharedDataScenario fig5a_scenario(std::size_t tasks, std::uint64_t seed) {
  workload::SharedDataConfig cfg;
  cfg.num_devices = 50;
  cfg.num_base_stations = 5;
  cfg.num_tasks = tasks;
  cfg.num_items = 600;
  cfg.max_extra_owners = 5;
  cfg.max_input_kb = 3000.0;
  cfg.seed = seed;
  return workload::make_shared_scenario(cfg);
}

// The heap bytes one run_dta call may take: one partial-task array (built
// once, in the result, and borrowed by the HtaInstance) and one
// TaskCosts table, plus per partial its source-task id, its entry in its
// cluster's task list and its decision; per item reference one
// (device, bytes) portion (a task has at most one partial per item); and
// a constant number of bytes per device, item, task and ownership entry
// (the divisions, the OwnerIndex and the per-task tables). A second copy
// of the partial tasks does not fit.
TEST(DtaAllocTest, RunDtaMakesOnePartialTaskArray) {
  for (const DtaStrategy strategy :
       {DtaStrategy::kWorkload, DtaStrategy::kNumber}) {
    for (const std::size_t tasks : {std::size_t{150}, std::size_t{450}}) {
      const SharedDataScenario scenario = fig5a_scenario(tasks, 1000 + tasks);
      DtaOptions opts;
      opts.strategy = strategy;
      opts.scheduler = PartialScheduler::kLocalGreedy;
      (void)run_dta(scenario, opts);  // registers the metrics it records

      std::uint64_t bytes = 0;
      DtaResult r;
      {
        const CountScope scope;
        r = run_dta(scenario, opts);
        bytes = g_bytes;
      }
      const std::size_t partials = r.rearranged.size();
      std::size_t item_refs = 0;
      for (const DivisibleTask& t : scenario.tasks) item_refs += t.items.size();
      std::size_t owned = 0;
      for (const ItemSet& d : scenario.ownership) owned += d.size();
      const std::size_t one_task_array = partials * sizeof(mec::Task);
      const std::size_t bound =
          one_task_array + partials * sizeof(mec::TaskCosts) +
          partials * (2 * sizeof(std::size_t) + sizeof(assign::Decision)) +
          item_refs * (sizeof(std::size_t) + sizeof(double)) +
          64 * (scenario.topology.num_devices() +
                scenario.universe.num_items() + tasks + owned);
      SCOPED_TRACE(to_string(strategy) + ", " + std::to_string(tasks) +
                   " tasks, " + std::to_string(partials) + " partials");
      EXPECT_GT(partials, tasks);
      EXPECT_LE(bytes, bound);
      // The bound is tight enough to catch a second task array.
      EXPECT_GT(bytes + one_task_array, bound);
    }
  }
}

// Heap blocks one OwnerIndex build takes over `items` and `sets`.
std::uint64_t owner_index_blocks(const ItemSet& items,
                                 const std::vector<ItemSet>& sets) {
  const CountScope scope;
  const OwnerIndex index(items, sets);
  return g_blocks;
}

// Every other id of 0..2n-1 as items, and `sets` sets of n ids each.
std::uint64_t blocks_at_size(std::size_t n, std::size_t sets) {
  ItemSet items;
  for (std::size_t r = 0; r < 2 * n; r += 2) items.push_back(r);
  std::vector<ItemSet> family(sets);
  for (std::size_t i = 0; i < sets; ++i) {
    for (std::size_t r = i % 3; r < 3 * n && family[i].size() < n; r += 3) {
      family[i].push_back(r);
    }
  }
  return owner_index_blocks(items, family);
}

TEST(DtaAllocTest, OwnerIndexBlocksDoNotGrowWithSetSizes) {
  const std::uint64_t small = blocks_at_size(8, 6);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(blocks_at_size(1000, 6), small);
  EXPECT_EQ(blocks_at_size(20000, 6), small);
  EXPECT_EQ(blocks_at_size(20000, 60), small);
}

}  // namespace
}  // namespace mecsched::dta

