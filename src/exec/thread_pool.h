// Fixed-size thread pool — the fan-out under LP-HTA's clusters and sweep
// cells.
//
// One FIFO queue, guarded by the mutex the workers sleep on; tasks come
// from one producer at a time, so a shared queue balances them as well as
// anything finer would. Design points:
//
//   * map(n, fn) is the one way in, the join-all fan-out both parallel
//     callers use: it runs fn(i) for every i < n and returns the results
//     in index order, waiting for every task before it returns or
//     rethrows; a task that throws fails the map, never the pool,
//   * shutdown is graceful: the destructor (or shutdown()) stops intake,
//     drains every queued task, then joins the workers,
//   * observable: exec.pool.queue_depth (gauge) and exec.pool.tasks
//     (counter) report into obs::Registry::global().
//
// The worker count defaults to default_jobs(): the CLI-wide --jobs flag
// (set_default_jobs) wins, then the MECSCHED_JOBS environment variable,
// then one worker per hardware thread.
#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace mecsched::exec {

class ThreadPool {
 public:
  // `workers` = 0 picks default_jobs().
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();  // graceful: drains queued work, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs fn(i) for every i < n on the pool and returns the results in
  // index order, whatever order the tasks finished in. Every task has
  // finished before map returns or throws, so `fn` may capture locals by
  // reference; if any task threw, the lowest-index failure is rethrown.
  // Throws ModelError after shutdown.
  template <typename F>
  auto map(std::size_t n, const F& fn)
      -> std::vector<std::invoke_result_t<const F&, std::size_t>> {
    using R = std::invoke_result_t<const F&, std::size_t>;
    // Results and failures land in slots this frame owns, and a task's
    // last act is to count itself done under `mu`: once the count is
    // complete no task touches anything here again, and no worker holds
    // the last reference to a result or an exception.
    std::vector<std::optional<R>> slots(n);
    std::vector<std::exception_ptr> errors(n);
    Mutex mu;
    CondVar cv;
    std::size_t done = 0;  // guarded by mu
    std::size_t queued = 0;
    std::exception_ptr enqueue_error;
    for (; queued < n; ++queued) {
      const std::size_t i = queued;
      try {
        enqueue([&, i] {
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
          const MutexLock lock(mu);
          ++done;
          cv.notify_one();
        });
      } catch (...) {
        enqueue_error = std::current_exception();
        break;
      }
    }
    {
      const MutexLock lock(mu);
      while (done < queued) cv.wait(mu);
    }
    if (enqueue_error) std::rethrow_exception(enqueue_error);
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    std::vector<R> out;
    out.reserve(n);
    for (std::optional<R>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  std::size_t size() const { return workers_.size(); }

  // Stops intake, finishes every queued task, joins. Idempotent; the
  // destructor calls it.
  void shutdown();

  // Worker count used when a pool (or sweep) is built with jobs = 0:
  // set_default_jobs() override > MECSCHED_JOBS env > hardware threads.
  // A MECSCHED_JOBS that is not a positive integer throws ModelError.
  static std::size_t default_jobs();
  // Process-wide override (the CLI's --jobs). 0 clears the override.
  static void set_default_jobs(std::size_t n);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  // Immutable after construction (workers are spawned last in the ctor).
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar wake_cv_;
  std::deque<std::function<void()>> queue_ MECSCHED_GUARDED_BY(mu_);
  bool stop_ MECSCHED_GUARDED_BY(mu_) = false;
};

}  // namespace mecsched::exec
