#include "exec/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace mecsched::exec {
namespace {

// A cell result that exercises both determinism inputs: the grid index and
// the per-cell RNG substream.
std::vector<double> run_cells(std::size_t jobs, std::size_t cells) {
  SweepOptions options;
  options.jobs = jobs;
  options.master_seed = 99;
  SweepRunner runner(options);
  return runner.run<double>(cells, [](CellContext& ctx) {
    Rng rng = ctx.rng();
    return static_cast<double>(ctx.index()) * 1000.0 + rng.uniform(0.0, 1.0);
  });
}

TEST(SweepRunnerTest, ResultsAreInGridOrderAtEveryJobCount) {
  const std::vector<double> serial = run_cells(1, 64);
  ASSERT_EQ(serial.size(), 64u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GE(serial[i], static_cast<double>(i) * 1000.0);
    EXPECT_LT(serial[i], static_cast<double>(i) * 1000.0 + 1.0);
  }
  // Bit-identical across pool widths: cells only read (index, substream).
  EXPECT_EQ(run_cells(2, 64), serial);
  EXPECT_EQ(run_cells(8, 64), serial);
}

TEST(SweepRunnerTest, CellSeedsMatchTheMasterSubstreams) {
  SweepOptions options;
  options.master_seed = 7;
  SweepRunner runner(options);
  const std::vector<std::uint64_t> seeds = runner.run<std::uint64_t>(
      5, [](CellContext& ctx) { return ctx.seed(); });
  const Rng master(7);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], master.substream_seed(i));
  }
}

TEST(SweepRunnerTest, ShardMetricsMergeIntoTheGlobalRegistry) {
  obs::Registry::global().reset();
  SweepOptions options;
  options.jobs = 4;
  SweepRunner runner(options);
  runner.run<int>(10, [](CellContext& ctx) {
    ctx.registry().counter("test.sweep.cells").add();
    ctx.registry().histogram("test.sweep.value")
        .observe(static_cast<double>(ctx.index()));
    return 0;
  });
  EXPECT_EQ(obs::Registry::global().counter("test.sweep.cells").value(), 10u);
  const Summary s =
      obs::Registry::global().histogram("test.sweep.value").summary();
  EXPECT_EQ(s.count(), 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  // The runner's own per-cell timing histogram merged too.
  EXPECT_EQ(obs::Registry::global()
                .histogram("exec.sweep.cell_seconds")
                .summary()
                .count(),
            10u);
}

TEST(SweepRunnerTest, HistogramMergeIsIdenticalAcrossJobCounts) {
  // Cells observe deterministic (index-derived) values into a shard
  // histogram; the grid-order merge must make the global histogram
  // independent of how cells were scheduled across workers.
  struct Observed {
    Summary summary;
    double p50;
    double p99;
  };
  const auto run_observed = [](std::size_t jobs) {
    obs::Registry::global().reset();
    SweepOptions options;
    options.jobs = jobs;
    SweepRunner runner(options);
    runner.run<int>(24, [](CellContext& ctx) {
      ctx.registry()
          .histogram("test.sweep.value_ms")
          .observe(static_cast<double>(ctx.index() % 7) + 0.5);
      return 0;
    });
    const obs::Histogram& h =
        obs::Registry::global().histogram("test.sweep.value_ms");
    return Observed{h.summary(), h.approx_percentile(0.50),
                    h.approx_percentile(0.99)};
  };
  const Observed serial = run_observed(1);
  const Observed parallel = run_observed(4);
  EXPECT_EQ(serial.summary.count(), 24u);
  EXPECT_EQ(parallel.summary.count(), serial.summary.count());
  EXPECT_EQ(parallel.summary.sum(), serial.summary.sum());
  EXPECT_EQ(parallel.summary.min(), serial.summary.min());
  EXPECT_EQ(parallel.summary.max(), serial.summary.max());
  EXPECT_EQ(parallel.p50, serial.p50);
  EXPECT_EQ(parallel.p99, serial.p99);
}

TEST(SweepRunnerTest, CellExceptionSurfacesAfterAllCellsJoin) {
  std::atomic<int> ran{0};
  SweepOptions options;
  options.jobs = 4;
  SweepRunner runner(options);
  EXPECT_THROW(
      runner.run<int>(12,
                      [&ran](CellContext& ctx) {
                        if (ctx.index() == 5) {
                          throw std::runtime_error("cell 5 failed");
                        }
                        ran.fetch_add(1);
                        return 0;
                      }),
      std::runtime_error);
  // Every other cell still executed before the rethrow.
  EXPECT_EQ(ran.load(), 11);
}

TEST(SweepRunnerTest, ZeroCellsIsANoOp) {
  SweepRunner runner;
  const std::vector<int> out =
      runner.run<int>(0, [](CellContext&) { return 1; });
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mecsched::exec
