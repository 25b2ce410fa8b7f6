// Hardened numeric-flag parsing (satellite of the budget pipeline):
// negative, NaN and overflowing values for --jobs, --reps and the
// global --budget-ms must fail with a clear
// message naming the flag — never wrap, clamp or silently truncate — and
// the valid forms must still work, including the budgeted chaos drill.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/deadline.h"

namespace mecsched::cli {
namespace {

class FlagsTest : public ::testing::Test {
 protected:
  int run_cli(const std::vector<std::string>& argv) {
    out_.str("");
    err_.str("");
    return run(argv, out_, err_);
  }

  // Expects the invocation to fail with an error that names the flag.
  void expect_rejected(const std::vector<std::string>& argv,
                       const std::string& flag) {
    EXPECT_EQ(run_cli(argv), 1) << flag;
    EXPECT_NE(err_.str().find(flag), std::string::npos)
        << "error should name " << flag << ", got: " << err_.str();
  }

  std::ostringstream out_, err_;
};

TEST_F(FlagsTest, JobsRejectsNonPositiveAndNonNumeric) {
  expect_rejected({"sweep", "--grid", "smoke", "--jobs", "-1"}, "--jobs");
  expect_rejected({"sweep", "--grid", "smoke", "--jobs", "0"}, "--jobs");
  expect_rejected({"sweep", "--grid", "smoke", "--jobs", "nan"}, "--jobs");
  expect_rejected({"sweep", "--grid", "smoke", "--jobs", "2.5"}, "--jobs");
  expect_rejected({"sweep", "--grid", "smoke", "--jobs", ""}, "--jobs");
  expect_rejected(
      {"sweep", "--grid", "smoke", "--jobs", "99999999999999999999"},
      "--jobs");
}

TEST_F(FlagsTest, RepsRejectsNegativeAndOverflow) {
  expect_rejected({"sweep", "--grid", "smoke", "--reps", "-3"}, "--reps");
  expect_rejected({"sweep", "--grid", "smoke", "--reps", "1.5"}, "--reps");
  expect_rejected(
      {"sweep", "--grid", "smoke", "--reps", "99999999999999999999"},
      "--reps");
  // Zero parses as a count but is semantically rejected.
  expect_rejected({"sweep", "--grid", "smoke", "--reps", "0"}, "--reps");
}

// The plan cache and the warm-start hints are gone; their flags must not
// be silently accepted.
TEST_F(FlagsTest, RemovedWarmStartFlagsAreUnknown) {
  expect_rejected({"sweep", "--grid", "smoke", "--warm-start"},
                  "unknown flag: --warm-start");
  expect_rejected({"serve", "--no-warm-start"},
                  "unknown flag: --no-warm-start");
}

// Sweep cells seed themselves from their grid position; a sweep-wide seed
// flag would change nothing.
TEST_F(FlagsTest, SweepHasNoSeedFlag) {
  expect_rejected({"sweep", "--grid", "smoke", "--seed", "5"},
                  "unknown flag: --seed");
}

TEST_F(FlagsTest, CountFlagsRejectNegativesEverywhere) {
  expect_rejected({"generate", "--tasks", "-10"}, "--tasks");
  expect_rejected({"generate", "--devices", "1e3"}, "--devices");
  expect_rejected({"generate-shared", "--items", "-2"}, "--items");
  expect_rejected({"generate-arrivals", "--tasks", "-4"}, "--tasks");
}

TEST_F(FlagsTest, BudgetMsRejectsNegativeNanAndGarbage) {
  expect_rejected({"sweep", "--grid", "smoke", "--budget-ms", "-5"},
                  "--budget-ms");
  expect_rejected({"sweep", "--grid", "smoke", "--budget-ms", "nan"},
                  "--budget-ms");
  expect_rejected({"sweep", "--grid", "smoke", "--budget-ms", "inf"},
                  "--budget-ms");
  expect_rejected({"sweep", "--grid", "smoke", "--budget-ms", "0"},
                  "--budget-ms");
  expect_rejected({"sweep", "--grid", "smoke", "--budget-ms", "fast"},
                  "--budget-ms");
  EXPECT_EQ(run_cli({"sweep", "--grid", "smoke", "--budget-ms"}), 1);
}

TEST_F(FlagsTest, ChaosProbabilitiesAreValidated) {
  expect_rejected({"chaos", "--cells", "2", "--stall-prob", "1.5"},
                  "--stall-prob");
  expect_rejected({"chaos", "--cells", "2", "--nan-prob", "-0.1"},
                  "--nan-prob");
  expect_rejected({"chaos", "--cells", "0"}, "--cells");
}

TEST_F(FlagsTest, ValidBudgetedSweepRunsAndResetsTheDefault) {
  EXPECT_EQ(run_cli({"sweep", "--grid", "smoke", "--reps", "1", "--budget-ms",
                     "200", "--jobs", "2"}),
            0);
  // The per-invocation override must not leak into the process.
  EXPECT_DOUBLE_EQ(default_solve_budget_ms(), 0.0);
}

TEST_F(FlagsTest, ChaosDrillIsDeterministicAcrossJobs) {
  const std::vector<std::string> base = {
      "chaos",         "--cells",      "8",    "--seed",       "7",
      "--stall-prob",  "0.05",         "--nan-prob", "0.05",
      "--cancel-prob", "0.05",         "--error-prob", "0.05",
      "--csv"};
  std::vector<std::string> one = base;
  one.insert(one.end(), {"--jobs", "1"});
  std::vector<std::string> four = base;
  four.insert(four.end(), {"--jobs", "4"});
  ASSERT_EQ(run_cli(one), 0);
  const std::string serial = out_.str();
  ASSERT_EQ(run_cli(four), 0);
  EXPECT_EQ(serial, out_.str());
  EXPECT_NE(serial.find("cell,rung,digest,energy_j"), std::string::npos);
}

}  // namespace
}  // namespace mecsched::cli
