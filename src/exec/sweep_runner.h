// Parallel scenario-grid fan-out with a deterministic result contract.
//
// A sweep is N independent cells (grid index 0..N-1). SweepRunner runs
// each cell once through ThreadPool::map and returns the per-cell results
// **in grid order**, whatever order the cells completed in, so a sweep's
// table/CSV is byte-identical for --jobs 1 and --jobs N.
//
// Determinism contract (tested in sweep_runner_test.cpp and the CLI sweep
// determinism test): a cell's result may depend only on its grid index —
// never on shared mutable state or completion order. A cell that needs
// randomness derives its seed from the index. Metrics written into the
// global registry (the runner's own exec.sweep.cell_seconds included) are
// thread-safe but accumulate in completion order.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"

namespace mecsched::exec {

class SweepRunner {
 public:
  // `jobs` = 0 uses ThreadPool::default_jobs() (--jobs flag /
  // MECSCHED_JOBS env / hardware threads).
  explicit SweepRunner(std::size_t jobs = 0) : jobs_(jobs) {}

  // Runs `fn(index)` once per cell across the pool and returns the results
  // in grid order. Waits for every cell even when one throws, then
  // rethrows the lowest-index failure. Each cell's wall-clock lands in the
  // global exec.sweep.cell_seconds histogram and, when the flight recorder
  // is on, in an exec/sweep_cell record, handed back in grid order.
  template <typename T>
  std::vector<T> run(std::size_t num_cells,
                     const std::function<T(std::size_t)>& fn) const {
    ThreadPool pool(jobs_);
    return pool.map(num_cells, [&fn](std::size_t i) {
      obs::FlightRecorder& flight = obs::FlightRecorder::global();
      const auto record = [&](const char* status, const std::string& detail,
                              double seconds) {
        obs::SolveRecord r;
        r.layer = "exec";
        r.engine = "sweep_cell";
        r.status = status;
        r.detail = "cell " + std::to_string(i) +
                   (detail.empty() ? "" : ": " + detail);
        r.seconds = seconds;
        flight.record(std::move(r));
      };
      const auto start = std::chrono::steady_clock::now();
      const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
      };
      T result = [&] {
        try {
          return fn(i);
        } catch (const std::exception& e) {
          if (flight.enabled()) record("error", e.what(), elapsed());
          throw;
        }
      }();
      const double dt = elapsed();
      obs::Registry::global().histogram("exec.sweep.cell_seconds").observe(dt);
      if (flight.enabled()) record("ok", "", dt);
      return result;
    });
  }

 private:
  std::size_t jobs_;
};

}  // namespace mecsched::exec
