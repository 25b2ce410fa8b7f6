#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"

namespace mecsched::exec {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  const std::vector<int> out = pool.map(100, [&](std::size_t i) {
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
    return static_cast<int>(i * i);
  });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[i], i * i);
  EXPECT_EQ(on_caller.load(), 0);  // the workers ran them, not the caller
}

TEST(ThreadPoolTest, SingleWorkerRunsEverything) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  const std::vector<std::thread::id> ids = pool.map(50, [&ran](std::size_t) {
    ran.fetch_add(1);
    return std::this_thread::get_id();
  });
  EXPECT_EQ(ran.load(), 50);
  ASSERT_EQ(ids.size(), 50u);
  for (const std::thread::id& id : ids) EXPECT_EQ(id, ids.front());
}

TEST(ThreadPoolTest, OneFailureDoesNotPoisonOtherTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::atomic<int> sum{0};
  EXPECT_THROW(pool.map(20,
                        [&](std::size_t i) -> int {
                          ran.fetch_add(1);
                          if (i == 13) throw std::runtime_error("unlucky");
                          sum.fetch_add(static_cast<int>(i));
                          return static_cast<int>(i);
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_EQ(sum.load(), 20 * 19 / 2 - 13);
  // Both workers survived the failure.
  EXPECT_EQ(pool.map(4, [](std::size_t i) { return i; }),
            (std::vector<std::size_t>{0, 1, 2, 3}));
}

// shutdown() is what the destructor runs: it stops intake but finishes
// every task already queued. A map in flight on another thread sees that:
// every task it queued runs, and the map ends (returning, or throwing
// ModelError for the tasks it could not queue) instead of waiting on a
// stranded queue.
TEST(ThreadPoolTest, DestructorDrainsPendingWorkUnderLoad) {
  obs::Counter& queued = obs::Registry::global().counter("exec.pool.tasks");
  const std::uint64_t queued0 = queued.value();
  std::atomic<int> ran{0};
  ThreadPool pool(3);
  std::thread producer([&] {
    try {
      pool.map(200, [&ran](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return ran.fetch_add(1);
      });
    } catch (const ModelError&) {
      // Intake stopped before the map queued all 200.
    }
  });
  while (ran.load() == 0) std::this_thread::yield();
  pool.shutdown();
  producer.join();
  EXPECT_EQ(static_cast<std::uint64_t>(ran.load()), queued.value() - queued0);
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.map(3, [](std::size_t i) { return i; }), ModelError);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  const std::vector<int> out = pool.map(3, [](std::size_t) { return 3; });
  pool.shutdown();
  pool.shutdown();
  EXPECT_EQ(out, (std::vector<int>{3, 3, 3}));
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

// Records `count` flight records "<tag>.0", "<tag>.1", ... on this thread.
void cut_records(const std::string& tag, int count) {
  for (int k = 0; k < count; ++k) {
    obs::SolveRecord r;
    r.layer = "exec";
    r.detail = tag + "." + std::to_string(k);
    obs::FlightRecorder::global().record(std::move(r));
  }
}

std::vector<std::string> recorded_details() {
  std::vector<std::string> out;
  for (const obs::SolveRecord& r : obs::FlightRecorder::global().snapshot()) {
    out.push_back(r.detail);
  }
  return out;
}

// The flight recorder is process-wide: a test that records starts it
// clean and leaves it off for the rest of the suite.
struct RecordingOn {
  RecordingOn() { obs::FlightRecorder::global().enable(); }
  ~RecordingOn() {
    obs::FlightRecorder::global().disable();
    obs::FlightRecorder::global().clear();
  }
};

// Tasks finish in reverse index order and one throws; every task's
// records still land in the ring, in index order, by the time map
// rethrows.
TEST(ThreadPoolTest, MapHandsBackRecordsInIndexOrder) {
  const RecordingOn recording;
  constexpr std::size_t kTasks = 8;
  ThreadPool pool(4);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < kTasks; ++i) {
    for (int k = 0; k < 2; ++k) {
      expected.push_back("task" + std::to_string(i) + "." + std::to_string(k));
    }
  }
  try {
    pool.map(kTasks, [](std::size_t i) -> int {
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * (kTasks - i)));
      cut_records("task" + std::to_string(i), 2);
      if (i == 5) throw std::runtime_error("task 5");
      return static_cast<int>(i);
    });
    ADD_FAILURE() << "map swallowed the failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5");
    EXPECT_EQ(recorded_details(), expected);
  }
  const std::vector<obs::SolveRecord> records =
      obs::FlightRecorder::global().snapshot();
  for (std::size_t s = 0; s < records.size(); ++s) {
    EXPECT_EQ(records[s].seq, s);
  }
}

// A map run inside a map task hands its records to the outer task, so
// they land in the outer task's slot, around that task's own records.
TEST(ThreadPoolTest, NestedMapRecordsLandInTheOuterTasksSlot) {
  const RecordingOn recording;
  ThreadPool outer(2);
  ThreadPool inner(2);
  outer.map(2, [&inner](std::size_t i) {
    const std::string tag = "outer" + std::to_string(i);
    cut_records(tag + ".before", 1);
    inner.map(2, [&tag](std::size_t j) {
      cut_records(tag + ".inner" + std::to_string(j), 1);
      return j;
    });
    cut_records(tag + ".after", 1);
    return i;
  });
  EXPECT_EQ(recorded_details(),
            (std::vector<std::string>{
                "outer0.before.0", "outer0.inner0.0", "outer0.inner1.0",
                "outer0.after.0", "outer1.before.0", "outer1.inner0.0",
                "outer1.inner1.0", "outer1.after.0"}));
}

// The serve daemon's rule: one worker (inline) unless --jobs or
// MECSCHED_JOBS asks for a count.
TEST(ThreadPoolTest, DefaultJobsFallsBackToTheUnaskedCount) {
  ASSERT_EQ(unsetenv("MECSCHED_JOBS"), 0);
  EXPECT_EQ(ThreadPool::default_jobs(1), 1u);
  ThreadPool::set_default_jobs(3);
  EXPECT_EQ(ThreadPool::default_jobs(1), 3u);
  ThreadPool::set_default_jobs(0);
  ASSERT_EQ(setenv("MECSCHED_JOBS", "2", 1), 0);
  EXPECT_EQ(ThreadPool::default_jobs(1), 2u);
  ASSERT_EQ(unsetenv("MECSCHED_JOBS"), 0);
}

TEST(ThreadPoolTest, ZeroWorkerRequestUsesDefault) {
  ThreadPool::set_default_jobs(2);
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 2u);
  ThreadPool::set_default_jobs(0);
}

}  // namespace
}  // namespace mecsched::exec
