#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>

#include "common/error.h"
#include "common/parse.h"
#include "obs/registry.h"

namespace mecsched::exec {

namespace {

std::atomic<std::size_t>& jobs_override() {
  static std::atomic<std::size_t> value{0};
  return value;
}

}  // namespace

std::size_t ThreadPool::default_jobs(std::size_t unasked) {
  const std::size_t forced = jobs_override().load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  if (const char* env = std::getenv("MECSCHED_JOBS")) {
    return parse_positive_count("MECSCHED_JOBS", env);
  }
  if (unasked > 0) return unasked;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::set_default_jobs(std::size_t n) {
  jobs_override().store(n, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = workers > 0 ? workers : default_jobs();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::enqueue(std::function<void()> task) {
  std::size_t depth = 0;
  {
    const MutexLock lock(mu_);
    MECSCHED_REQUIRE(!stop_, "ThreadPool: used after shutdown");
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  obs::Registry& reg = obs::Registry::global();
  reg.counter("exec.pool.tasks").add();
  reg.gauge("exec.pool.queue_depth").set(static_cast<double>(depth));
  wake_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    std::size_t depth = 0;
    {
      // Open-coded predicate wait: the analysis sees stop_ and queue_ read
      // with mu_ held here, where a predicate lambda handed to a
      // condition_variable would be analyzed as a lock-free function.
      const MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) wake_cv_.wait(mu_);
      if (queue_.empty()) return;  // stopping, and the queue is drained
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    obs::Registry::global().gauge("exec.pool.queue_depth")
        .set(static_cast<double>(depth));
    task();  // a map task stores its own exception for the caller
  }
}

}  // namespace mecsched::exec
