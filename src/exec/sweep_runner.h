// Parallel scenario-grid fan-out with a deterministic result contract.
//
// A sweep is N independent cells (grid index 0..N-1). SweepRunner runs
// each cell once on a work-stealing ThreadPool and returns the per-cell
// results **in grid order**, whatever order the cells completed in, so a
// sweep's table/CSV is byte-identical for --jobs 1 and --jobs N.
//
// Determinism contract (tested in sweep_runner_test.cpp and the CLI sweep
// determinism test):
//   * a cell may depend only on its CellContext — its grid index and the
//     Rng substream derived from (master_seed, index) — never on shared
//     mutable state or completion order;
//   * each cell writes sweep-level metrics into a private obs::Registry
//     shard; shards are merged into Registry::global() in grid order after
//     the join, so merged counters/histograms are schedule-independent.
//     (Metrics the solvers write straight into the global registry remain
//     thread-safe but accumulate in completion order.)
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"

namespace mecsched::exec {

struct SweepOptions {
  // Worker count; 0 uses ThreadPool::default_jobs() (--jobs flag /
  // MECSCHED_JOBS env / hardware threads).
  std::size_t jobs = 0;
  // Root of the per-cell RNG substreams (CellContext::rng()).
  std::uint64_t master_seed = 1;
  // Whole-sweep wall-clock deadline (unlimited by default). The runner
  // never kills a cell; cells opt in by passing CellContext::cancel() into
  // budget-aware assigners/solvers, which then degrade via their anytime
  // contracts. Cells that *start* past the deadline are tallied into
  // exec.sweep.cells_past_deadline (on their shard, so the count is
  // schedule-independent after the grid-order merge).
  Deadline deadline{};
};

// Everything a cell is allowed to read. Handed to the cell function by the
// runner; valid only for the duration of the call.
class CellContext {
 public:
  CellContext(std::size_t index, const SweepOptions& options,
              obs::Registry& shard)
      : index_(index), options_(&options), shard_(&shard) {}

  std::size_t index() const { return index_; }

  // Deterministic per-cell stream: substream `index` of the master seed.
  // Independent of every other cell by construction.
  std::uint64_t seed() const {
    return Rng(options_->master_seed).substream_seed(index_);
  }
  Rng rng() const { return Rng(options_->master_seed).substream(index_); }

  // Private metric shard, merged into the global registry in grid order.
  obs::Registry& registry() { return *shard_; }

  // The sweep-wide budget, as a deadline and as a ready-made token for
  // budget-aware assigners (see SweepOptions::deadline).
  const Deadline& deadline() const { return options_->deadline; }
  CancellationToken cancel() const {
    return CancellationToken(options_->deadline);
  }

 private:
  std::size_t index_;
  const SweepOptions* options_;
  obs::Registry* shard_;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  std::size_t jobs() const {
    return options_.jobs > 0 ? options_.jobs : ThreadPool::default_jobs();
  }

  // Runs `fn` once per cell across the pool and returns the results in
  // grid order. Waits for every cell even when one throws, then rethrows
  // the first failure. Each cell's wall-clock lands in the
  // exec.sweep.cell_seconds histogram of its shard (hence, merged, of the
  // global registry).
  template <typename T>
  std::vector<T> run(std::size_t num_cells,
                     const std::function<T(CellContext&)>& fn) {
    std::vector<std::unique_ptr<obs::Registry>> shards(num_cells);
    std::vector<std::optional<T>> slots(num_cells);
    for (std::size_t i = 0; i < num_cells; ++i) {
      shards[i] = std::make_unique<obs::Registry>();
    }
    {
      ThreadPool pool(jobs());
      std::vector<std::future<void>> futures;
      futures.reserve(num_cells);
      for (std::size_t i = 0; i < num_cells; ++i) {
        futures.push_back(pool.submit([this, &fn, &shards, &slots, i] {
          CellContext ctx(i, options_, *shards[i]);
          const bool past_deadline = options_.deadline.expired();
          if (past_deadline) {
            shards[i]->counter("exec.sweep.cells_past_deadline").add();
          }
          obs::FlightRecorder& flight = obs::FlightRecorder::global();
          const auto cut_record = [&](const char* status,
                                      const std::string& detail,
                                      double seconds) {
            obs::SolveRecord r;
            r.layer = "exec";
            r.engine = "sweep_cell";
            r.status = status;
            r.detail = "cell " + std::to_string(i) +
                       (detail.empty() ? "" : ": " + detail);
            r.seconds = seconds;
            r.deadline_residual_ms =
                obs::FlightRecorder::residual_ms(options_.deadline);
            r.deadline_hit = past_deadline;
            flight.record(std::move(r));
          };
          const auto start = std::chrono::steady_clock::now();
          const auto elapsed = [&start] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
          };
          try {
            slots[i].emplace(fn(ctx));
          } catch (const std::exception& e) {
            if (flight.enabled()) cut_record("error", e.what(), elapsed());
            throw;
          }
          const double dt = elapsed();
          shards[i]->histogram("exec.sweep.cell_seconds").observe(dt);
          if (flight.enabled()) {
            cut_record(past_deadline ? "deadline" : "ok", "", dt);
          }
        }));
      }
      // Join every cell before touching the slots; surface the first
      // failure only after the pool is quiesced.
      std::exception_ptr first;
      for (std::future<void>& f : futures) {
        try {
          f.get();
        } catch (...) {
          if (!first) first = std::current_exception();
        }
      }
      if (first) std::rethrow_exception(first);
    }
    // Deterministic merge: grid order, independent of completion order.
    for (const auto& shard : shards) {
      obs::Registry::global().merge_from(*shard);
    }
    std::vector<T> out;
    out.reserve(num_cells);
    for (std::optional<T>& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  SweepOptions options_;
};

}  // namespace mecsched::exec
