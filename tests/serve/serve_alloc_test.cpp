// Allocation regression test for the serve epoch loop. This binary
// overrides the global operator new/delete to count the heap blocks taken
// while a counting scope is open — which is why it is its own test binary
// and not part of serve_test.
//
// The contract being locked in: a city run at one worker holds each
// epoch's tasks and clusters in one form each — the epoch problem's task
// array, borrowed by the HtaInstance; one CSR array per grouping (the
// topology's clusters, the instance's cluster tasks); and cluster solves that write their decisions straight into the
// plan. At one worker the count is deterministic, so the gate is tight.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "audit/audit.h"
#include "serve/daemon.h"
#include "workload/serve_trace.h"

namespace {
// Plain (not atomic) counters: the counted run is single-threaded and the
// override must itself stay allocation-free.
bool g_scope_open = false;
std::uint64_t g_blocks = 0;

void* counted_alloc(std::size_t size) {
  if (g_scope_open) ++g_blocks;
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

namespace mecsched::serve {
namespace {

// The 4-epoch city workload of daemon_test's CityScaleRunIsPinned.
workload::ServeWorkload city_workload() {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 100000;
  cfg.scenario.num_base_stations = 250;
  cfg.scenario.seed = 1;
  cfg.epochs = 4;
  cfg.epoch_s = 0.5;
  cfg.arrival_rate_per_s = 24000.0;
  cfg.join_rate_per_s = 10.0;
  cfg.leave_rate_per_s = 10.0;
  cfg.migrate_rate_per_s = 40.0;
  return workload::make_serve_workload(cfg);
}

// Heap blocks one ServeDaemon::run of `w` takes at one worker.
std::uint64_t run_blocks(const workload::ServeWorkload& w) {
  ServeOptions opts;
  opts.batching.window_s = 0.5;
  opts.jobs = 1;
  const ServeDaemon daemon(opts);
  g_blocks = 0;
  g_scope_open = true;
  (void)daemon.run(w.universe, w.trace);
  g_scope_open = false;
  return g_blocks;
}

// The second run is counted: the first registers the metrics the run
// records and grows the per-thread scratch to the city's size. The audit
// level is forced off so that every build type and audit setting counts
// the same run.
TEST(ServeAllocTest, CityRunAllocationsArePinned) {
  const audit::ScopedLevel off(audit::Level::kOff);
  const workload::ServeWorkload w = city_workload();
  (void)run_blocks(w);
  const std::uint64_t blocks = run_blocks(w);
  EXPECT_GT(blocks, 0u);
  // 34,637 before the instance borrowed its tasks, each grouping became
  // one CSR array and the cluster solves wrote the plan in place.
  EXPECT_LE(blocks, 24494u);
}

}  // namespace
}  // namespace mecsched::serve
