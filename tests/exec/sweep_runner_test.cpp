#include "exec/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/registry.h"

namespace mecsched::exec {
namespace {

// A cell result that depends on the grid index both directly and through
// an index-derived RNG substream.
std::vector<double> run_cells(std::size_t jobs, std::size_t cells) {
  return SweepRunner(jobs).run<double>(cells, [](std::size_t i) {
    Rng rng = Rng(99).substream(i);
    return static_cast<double>(i) * 1000.0 + rng.uniform(0.0, 1.0);
  });
}

TEST(SweepRunnerTest, ResultsAreInGridOrderAtEveryJobCount) {
  const std::vector<double> serial = run_cells(1, 64);
  ASSERT_EQ(serial.size(), 64u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GE(serial[i], static_cast<double>(i) * 1000.0);
    EXPECT_LT(serial[i], static_cast<double>(i) * 1000.0 + 1.0);
  }
  // Bit-identical across pool widths: cells only read their index.
  EXPECT_EQ(run_cells(2, 64), serial);
  EXPECT_EQ(run_cells(8, 64), serial);
}

TEST(SweepRunnerTest, CellSecondsLandInTheGlobalRegistry) {
  obs::Registry::global().reset();
  SweepRunner(4).run<int>(10, [](std::size_t) { return 0; });
  EXPECT_EQ(obs::Registry::global()
                .histogram("exec.sweep.cell_seconds")
                .summary()
                .count(),
            10u);
}

TEST(SweepRunnerTest, CellExceptionSurfacesAfterAllCellsJoin) {
  std::atomic<int> ran{0};
  EXPECT_THROW(SweepRunner(4).run<int>(12,
                                       [&ran](std::size_t i) {
                                         if (i == 5) {
                                           throw std::runtime_error(
                                               "cell 5 failed");
                                         }
                                         ran.fetch_add(1);
                                         return 0;
                                       }),
               std::runtime_error);
  // Every other cell still executed before the rethrow.
  EXPECT_EQ(ran.load(), 11);
}

TEST(SweepRunnerTest, ZeroCellsIsANoOp) {
  const std::vector<int> out =
      SweepRunner().run<int>(0, [](std::size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mecsched::exec
