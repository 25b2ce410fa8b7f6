// Exception-safe shutdown: a task that throws while the pool is draining —
// or a whole grid of poisoned sweep cells — must never strand the queue or
// deadlock the join; the pool keeps draining, the runner rethrows the
// lowest-index failure after all cells complete, and both stay reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "exec/sweep_runner.h"
#include "exec/thread_pool.h"

namespace mecsched::exec {
namespace {

TEST(PoolPoisonTest, SubmittedExceptionSurfacesInTheFutureOnly) {
  ThreadPool pool(2);
  auto poisoned = pool.submit([]() -> int { throw SolverError("boom"); });
  auto healthy = pool.submit([] { return 41 + 1; });
  EXPECT_THROW(poisoned.get(), SolverError);
  EXPECT_EQ(healthy.get(), 42);  // the worker survived the poisoned task
}

TEST(PoolPoisonTest, ThrowingTasksDuringDrainDoNotDeadlockShutdown) {
  // Queue far more throwing tasks than workers, then destroy the pool
  // immediately: shutdown() must drain every one of them and join. Before
  // the worker_loop guard, the first throw killed its worker and the join
  // hung on the stranded queue.
  std::atomic<int> drained{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&drained]() -> void {
        drained.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("poison");
      }));
    }
  }  // ~ThreadPool: graceful drain + join — completing at all is the test
  EXPECT_EQ(drained.load(), 64);
  for (auto& f : futures) EXPECT_THROW(f.get(), std::runtime_error);
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
