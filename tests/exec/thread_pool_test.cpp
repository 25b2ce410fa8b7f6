#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"

namespace mecsched::exec {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPoolTest, SingleWorkerRunsEverything) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("cell exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(
      {
        try {
          bad.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "cell exploded");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, OneFailureDoesNotPoisonOtherTasks) {
  ThreadPool pool(2);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i == 13) throw std::runtime_error("unlucky");
      return i;
    }));
  }
  int failures = 0;
  int sum = 0;
  for (auto& f : futures) {
    try {
      sum += f.get();
    } catch (const std::runtime_error&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(sum, 20 * 19 / 2 - 13);
}

TEST(ThreadPoolTest, DestructorDrainsPendingWorkUnderLoad) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // Destructor must block until all 200 tasks executed.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), ModelError);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 3; });
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(f.get(), 3);
}

TEST(ThreadPoolTest, DefaultJobsHonorsOverrideThenEnv) {
  ThreadPool::set_default_jobs(5);
  EXPECT_EQ(ThreadPool::default_jobs(), 5u);
  ThreadPool::set_default_jobs(0);  // back to env / hardware

  ASSERT_EQ(setenv("MECSCHED_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ASSERT_EQ(unsetenv("MECSCHED_JOBS"), 0);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPoolTest, MalformedJobsEnvIsAnErrorNamingIt) {
  // The same rule as --jobs: digits only, positive, no silent fallback to
  // the hardware count and no reading "4abc" as 4.
  for (const char* bad : {"4abc", "0", "-3", "abc", "", " 2"}) {
    ASSERT_EQ(setenv("MECSCHED_JOBS", bad, 1), 0);
    try {
      ThreadPool::default_jobs();
      ADD_FAILURE() << "accepted MECSCHED_JOBS='" << bad << "'";
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find("MECSCHED_JOBS"),
                std::string::npos)
          << e.what();
    }
  }
  // The override still wins over a malformed variable.
  ThreadPool::set_default_jobs(2);
  EXPECT_EQ(ThreadPool::default_jobs(), 2u);
  ThreadPool::set_default_jobs(0);
  ASSERT_EQ(unsetenv("MECSCHED_JOBS"), 0);
}

TEST(ThreadPoolTest, MapReturnsResultsInIndexOrder) {
  ThreadPool pool(4);
  const std::vector<std::size_t> out =
      pool.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  EXPECT_TRUE(pool.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(ThreadPoolTest, MapJoinsEveryTaskThenRethrowsTheLowestIndexFailure) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> ran(16);
    // Tasks 3 and 9 throw, task 3 after a delay that lets task 9 fail
    // first on a wide pool. The slow tail must still finish before map
    // returns, and the error reported is task 3's.
    try {
      pool.map(ran.size(), [&ran](std::size_t i) -> int {
        if (i == 3) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (i > 9) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ran[i].fetch_add(1);
        if (i == 3 || i == 9) {
          throw std::runtime_error("task " + std::to_string(i));
        }
        return static_cast<int>(i);
      });
      ADD_FAILURE() << "map swallowed the failures at " << workers
                    << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << workers << " workers";
    }
    for (std::size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "task " << i << " at " << workers
                                  << " workers";
    }
    // The pool is still usable.
    EXPECT_EQ(pool.map(3, [](std::size_t i) { return i; }).size(), 3u);
  }
}

TEST(ThreadPoolTest, ZeroWorkerRequestUsesDefault) {
  ThreadPool::set_default_jobs(2);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 2u);
  ThreadPool::set_default_jobs(0);
}

}  // namespace
}  // namespace mecsched::exec
