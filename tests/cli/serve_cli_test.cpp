// `mecsched serve` / `generate-serve` end-to-end through cli::run — the
// same in-process harness commands_test.cpp uses.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "io/codec.h"
#include "io/json.h"

namespace mecsched::cli {
namespace {

class ServeCliTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "mecsched_serve_" + info->name() + "_" +
           name;
  }
  void TearDown() override {
    for (const char* f : {"w.json", "r.json", "d1.csv", "d4.csv", "a.csv",
                          "b.csv"}) {
      std::remove(path(f).c_str());
    }
  }

  int run_cli(const std::vector<std::string>& argv) {
    out_.str("");
    err_.str("");
    return run(argv, out_, err_);
  }

  std::ostringstream out_, err_;
};

const std::vector<std::string> kKnobs = {
    "--devices", "25", "--stations", "3", "--seed",       "9",
    "--epochs",  "4",  "--rate",     "25", "--leave-rate", "2",
    "--migrate-rate", "2"};

std::vector<std::string> with_knobs(std::vector<std::string> argv) {
  argv.insert(argv.end(), kKnobs.begin(), kKnobs.end());
  return argv;
}

TEST_F(ServeCliTest, ServeEmitsAConsistentSummary) {
  ASSERT_EQ(run_cli(with_knobs({"serve"})), 0)
      << err_.str();
  const io::Json j = io::Json::parse(out_.str());
  EXPECT_GT(j.at("arrivals").as_number(), 0.0);
  EXPECT_GT(j.at("decisions").as_number(), 0.0);
  EXPECT_EQ(j.at("arrivals").as_number(),
            j.at("admitted").as_number() + j.at("rejected").as_number());
  EXPECT_TRUE(j.at("decision_digest").is_string());
  EXPECT_TRUE(j.contains("fallback_rungs"));
}

TEST_F(ServeCliTest, DecisionLogIsIdenticalAcrossJobs) {
  ASSERT_EQ(run_cli(with_knobs({"serve", "--jobs", "1",
                                "--decisions-out", path("d1.csv"),
                                "--out", path("r.json")})),
            0)
      << err_.str();
  ASSERT_EQ(run_cli(with_knobs({"serve", "--jobs", "4",
                                "--decisions-out", path("d4.csv"),
                                "--out", path("r.json")})),
            0)
      << err_.str();
  std::ifstream f1(path("d1.csv")), f4(path("d4.csv"));
  const std::string c1((std::istreambuf_iterator<char>(f1)),
                       std::istreambuf_iterator<char>());
  const std::string c4((std::istreambuf_iterator<char>(f4)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c1, c4);
}

TEST_F(ServeCliTest, GeneratedWorkloadReplaysIdentically) {
  ASSERT_EQ(run_cli(with_knobs({"generate-serve", "--out", path("w.json")})),
            0)
      << err_.str();
  ASSERT_EQ(run_cli(with_knobs({"serve"})), 0) << err_.str();
  const io::Json inline_run = io::Json::parse(out_.str());
  ASSERT_EQ(run_cli({"serve", "--replay", path("w.json")}), 0) << err_.str();
  const io::Json replayed = io::Json::parse(out_.str());
  EXPECT_EQ(inline_run.at("decision_digest").as_string(),
            replayed.at("decision_digest").as_string());
}

TEST_F(ServeCliTest, RejectsMalformedFlags) {
  EXPECT_NE(run_cli({"serve", "--epoch-s", "0"}), 0);
  EXPECT_NE(run_cli({"serve", "--epoch-s", "nan"}), 0);
  EXPECT_NE(run_cli({"serve", "--epoch-budget-ms", "-5"}), 0);
  EXPECT_NE(run_cli({"serve", "--rate", "bogus"}), 0);
  EXPECT_NE(run_cli({"serve", "--no-such-flag"}), 0);
}

const std::string kLogHeader =
    "epoch,time_s,user,index,kind,decision,attempt,latency_s,energy_j\n";
const std::vector<std::string> kLogRows = {
    "0,0.5,3,0,decide,edge,1,0.25,1.5\n",
    "0,0.5,4,0,retry,cancelled,1,0,0\n",
    "1,1,4,0,decide,local,2,0.75,0.5\n",
};

std::string log_of(const std::vector<std::string>& rows) {
  std::string csv = kLogHeader;
  for (const std::string& r : rows) csv += r;
  return csv;
}

TEST_F(ServeCliTest, ReportDiffTellsAPermutationFromAMatch) {
  io::write_file(path("a.csv"), log_of(kLogRows));
  io::write_file(path("b.csv"), log_of({kLogRows[1], kLogRows[0],
                                        kLogRows[2]}));
  EXPECT_EQ(run_cli({"report", "--diff", path("a.csv"), path("b.csv")}), 1);
  EXPECT_NE(out_.str().find("in order: differ"), std::string::npos);
  EXPECT_NE(out_.str().find("as a multiset: match"), std::string::npos);
  EXPECT_NE(out_.str().find("first divergent record: 1"), std::string::npos);

  EXPECT_EQ(run_cli({"report", "--diff", path("a.csv"), path("a.csv")}), 0);
  EXPECT_NE(out_.str().find("in order: match"), std::string::npos);
  EXPECT_EQ(out_.str().find("first divergent"), std::string::npos);
}

TEST_F(ServeCliTest, ReportDiffNamesTheFirstEditedRecord) {
  io::write_file(path("a.csv"), log_of(kLogRows));
  io::write_file(path("b.csv"),
                 log_of({kLogRows[0], kLogRows[1],
                         "1,1,4,0,decide,cloud,2,0.75,0.5\n",
                         "1,1,5,0,expire,cancelled,1,0,0\n"}));
  EXPECT_EQ(run_cli({"report", "--diff", path("a.csv"), path("b.csv")}), 1);
  const std::string report = out_.str();
  EXPECT_NE(report.find("as a multiset: differ"), std::string::npos);
  EXPECT_NE(report.find("first divergent record: 3"), std::string::npos);
  EXPECT_NE(report.find("A: 1,1,4,0,decide,local,2,0.75,0.5"),
            std::string::npos);
  EXPECT_NE(report.find("B: 1,1,4,0,decide,cloud,2,0.75,0.5"),
            std::string::npos);
  // One more expire in B, the decides unchanged.
  EXPECT_NE(report.find("| expire |"), std::string::npos);
  EXPECT_NE(report.find("|     1 |"), std::string::npos);
}

// A log with a column the other lacks (here an older log's shard column)
// compares on the columns both name.
TEST_F(ServeCliTest, ReportDiffComparesTheSharedColumns) {
  io::write_file(path("a.csv"),
                 "epoch,time_s,user,index,kind,shard,decision,attempt,"
                 "latency_s,energy_j\n"
                 "0,0.5,3,0,decide,2,edge,1,0.25,1.5\n"
                 "0,0.5,4,0,retry,0,cancelled,1,0,0\n"
                 "1,1,4,0,decide,1,local,2,0.75,0.5\n");
  io::write_file(path("b.csv"), log_of(kLogRows));
  EXPECT_EQ(run_cli({"report", "--diff", path("a.csv"), path("b.csv")}), 0)
      << out_.str() << err_.str();
  EXPECT_NE(out_.str().find("compared columns: epoch,time_s,user,index,kind,"
                            "decision,attempt,latency_s,energy_j\n"),
            std::string::npos);
  EXPECT_NE(out_.str().find("in order: match"), std::string::npos);
}

TEST_F(ServeCliTest, ReportDiffWantsTwoFiles) {
  EXPECT_NE(run_cli({"report", "--diff", path("a.csv")}), 0);
  EXPECT_NE(err_.str().find("--diff"), std::string::npos);
}

}  // namespace
}  // namespace mecsched::cli
