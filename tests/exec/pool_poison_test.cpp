// Exception-safe shutdown: tasks that throw while the pool is draining —
// or a whole grid of poisoned sweep cells — must never strand the queue or
// deadlock the join; the pool keeps draining, the runner rethrows the
// lowest-index failure after all cells complete, and both stay reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "exec/sweep_runner.h"
#include "exec/thread_pool.h"
#include "obs/registry.h"

namespace mecsched::exec {
namespace {

TEST(PoolPoisonTest, ThrowingTasksDuringDrainDoNotDeadlockShutdown) {
  // A map whose tasks all throw is in flight on another thread when the
  // pool shuts down: shutdown() must drain every queued task and join, and
  // the map must end with a failure — completing at all is most of the
  // test.
  obs::Counter& queued = obs::Registry::global().counter("exec.pool.tasks");
  const std::uint64_t queued0 = queued.value();
  std::atomic<int> drained{0};
  bool map_threw = false;
  ThreadPool pool(2);
  std::thread producer([&] {
    try {
      pool.map(64, [&drained](std::size_t) -> int {
        drained.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("poison");
      });
    } catch (const std::exception&) {
      map_threw = true;  // "poison", or ModelError if intake stopped first
    }
  });
  while (drained.load() == 0) std::this_thread::yield();
  pool.shutdown();
  producer.join();
  EXPECT_TRUE(map_threw);
  EXPECT_EQ(static_cast<std::uint64_t>(drained.load()),
            queued.value() - queued0);
}

TEST(PoolPoisonTest, PoisonedCellCannotDeadlockTheSweepRunner) {
  const SweepRunner runner(4);
  // Every odd cell throws; run() must still finish all 16 cells, then
  // rethrow the lowest-index failure.
  std::atomic<int> ran{0};
  const std::function<int(std::size_t)> cell = [&ran](std::size_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (i % 2 == 1) throw SolverError("poisoned cell " + std::to_string(i));
    return static_cast<int>(i);
  };
  try {
    runner.run<int>(16, cell);
    ADD_FAILURE() << "the poisoned cells were swallowed";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned cell 1"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 16);

  // The runner (and a fresh pool under it) stays usable afterwards.
  ran.store(0);
  const std::function<int(std::size_t)> healthy = [&ran](std::size_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    return static_cast<int>(i);
  };
  const std::vector<int> results = runner.run<int>(8, healthy);
  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i], i);
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace mecsched::exec
