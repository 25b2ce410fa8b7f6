// End-to-end CLI tests: generate -> assign -> evaluate -> simulate round
// trips through real files, all in-process via cli::run.
#include "cli/commands.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/codec.h"
#include "obs/flight_recorder.h"

namespace mecsched::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) const {
    // Unique per test case: ctest runs these as concurrent processes, and
    // a shared filename would let parallel tests clobber each other's
    // scenarios (TearDown even deletes them mid-run).
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "mecsched_cli_" + info->name() + "_" + name;
  }
  void TearDown() override {
    for (const char* f : {"s.json", "p.json", "m.json", "trace.json",
                          "metrics.prom", "flight.jsonl"}) {
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

TEST_F(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(run_cli({"--help"}), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_EQ(run_cli({}), 1);
  EXPECT_EQ(run_cli({"frobnicate"}), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateAssignEvaluateRoundTrip) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "15", "--devices", "6",
                     "--stations", "2", "--seed", "5", "--out",
                     path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--algorithm",
                     "lp-hta", "--out", path("p.json")}),
            0);
  ASSERT_EQ(run_cli({"evaluate", "--scenario", path("s.json"), "--plan",
                     path("p.json"), "--out", path("m.json")}),
            0);

  const io::Json metrics =
      io::Json::parse(io::read_file(path("m.json")));
  EXPECT_DOUBLE_EQ(metrics.at("num_tasks").as_number(), 15.0);
  EXPECT_TRUE(metrics.at("feasible").as_bool());
  EXPECT_GT(metrics.at("total_energy_j").as_number(), 0.0);
}

TEST_F(CliTest, GenerateIsDeterministicPerSeed) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--seed", "9"}), 0);
  const std::string first = out_.str();
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--seed", "9"}), 0);
  EXPECT_EQ(out_.str(), first);
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--seed", "10"}), 0);
  EXPECT_NE(out_.str(), first);
}

TEST_F(CliTest, SimulateReportsMakespan) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "10", "--devices", "5",
                     "--stations", "1", "--out", path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--out",
                     path("p.json")}),
            0);
  ASSERT_EQ(run_cli({"simulate", "--scenario", path("s.json"), "--plan",
                     path("p.json")}),
            0);
  const io::Json r = io::Json::parse(out_.str());
  EXPECT_GT(r.at("makespan_s").as_number(), 0.0);
  EXPECT_EQ(r.at("tasks").as_array().size(), 10u);

  // contention can only increase the makespan
  const double ideal = r.at("makespan_s").as_number();
  ASSERT_EQ(run_cli({"simulate", "--scenario", path("s.json"), "--plan",
                     path("p.json"), "--contention"}),
            0);
  EXPECT_GE(io::Json::parse(out_.str()).at("makespan_s").as_number(),
            ideal - 1e-9);
}

TEST_F(CliTest, CompareListsAllAlgorithms) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "12", "--out", path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"compare", "--scenario", path("s.json")}), 0);
  const std::string table = out_.str();
  for (const char* name :
       {"LP-HTA", "HGOS", "AllToC", "AllOffload", "LocalFirst"}) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
}

TEST_F(CliTest, MissingFilesAreCleanErrors) {
  EXPECT_EQ(run_cli({"assign", "--scenario", "/nope/missing.json"}), 1);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
  EXPECT_EQ(run_cli({"evaluate", "--scenario", "/nope/a", "--plan", "/nope/b"}),
            1);
}

TEST_F(CliTest, UnknownAlgorithmIsACleanError) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--out", path("s.json")}), 0);
  EXPECT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--algorithm",
                     "quantum"}),
            1);
  EXPECT_NE(err_.str().find("unknown algorithm"), std::string::npos);
}

TEST_F(CliTest, PlanScenarioSizeMismatchDetected) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--out", path("s.json")}), 0);
  io::write_file(path("p.json"), R"({"decisions": ["local", "edge"]})");
  EXPECT_EQ(run_cli({"evaluate", "--scenario", path("s.json"), "--plan",
                     path("p.json")}),
            1);
}

TEST_F(CliTest, SharedScenarioAndDtaCommands) {
  ASSERT_EQ(run_cli({"generate-shared", "--tasks", "8", "--devices", "6",
                     "--stations", "2", "--items", "30", "--out",
                     path("s.json")}),
            0);
  for (const char* strategy : {"workload", "workload-bytes", "number"}) {
    ASSERT_EQ(run_cli({"dta", "--scenario", path("s.json"), "--strategy",
                       strategy, "--scheduler", "greedy"}),
              0)
        << strategy;
    const io::Json r = io::Json::parse(out_.str());
    EXPECT_GT(r.at("total_energy_j").as_number(), 0.0);
    EXPECT_GT(r.at("involved_devices").as_number(), 0.0);
  }
  EXPECT_EQ(run_cli({"dta", "--scenario", path("s.json"), "--strategy",
                     "quantum"}),
            1);
  EXPECT_NE(err_.str().find("unknown strategy"), std::string::npos);
}

TEST_F(CliTest, BreakdownCommand) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "6", "--out", path("s.json")}), 0);
  ASSERT_EQ(run_cli({"breakdown", "--scenario", path("s.json"), "--task",
                     "2"}),
            0);
  const io::Json j = io::Json::parse(out_.str());
  for (const char* p : {"local", "edge", "cloud"}) {
    ASSERT_TRUE(j.contains(p)) << p;
    EXPECT_GT(j.at(p).at("total_energy_j").as_number(), 0.0);
    EXPECT_FALSE(j.at(p).at("legs").as_array().empty());
  }
  // single placement + validation
  ASSERT_EQ(run_cli({"breakdown", "--scenario", path("s.json"), "--task",
                     "0", "--placement", "edge"}),
            0);
  EXPECT_TRUE(io::Json::parse(out_.str()).contains("edge"));
  EXPECT_EQ(run_cli({"breakdown", "--scenario", path("s.json"), "--task",
                     "99"}),
            1);
}

TEST_F(CliTest, RecoverCommand) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "12", "--devices", "6",
                     "--stations", "2", "--out", path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--out",
                     path("p.json")}),
            0);
  ASSERT_EQ(run_cli({"recover", "--scenario", path("s.json"), "--plan",
                     path("p.json"), "--device", "1"}),
            0);
  const io::Json j = io::Json::parse(out_.str());
  EXPECT_EQ(j.at("decisions").as_array().size(), 12u);
  EXPECT_GE(j.at("lost_issued").as_number(), 1.0);  // device 1 issued tasks
}

TEST_F(CliTest, OnlinePipelineCommands) {
  ASSERT_EQ(run_cli({"generate-arrivals", "--tasks", "20", "--devices", "8",
                     "--stations", "2", "--rate", "15", "--out",
                     path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"online", "--scenario", path("s.json"), "--epoch-s",
                     "0.25"}),
            0);
  const io::Json r = io::Json::parse(out_.str());
  EXPECT_EQ(r.at("outcomes").as_array().size(), 20u);
  EXPECT_GT(r.at("epochs").as_number(), 0.0);
  EXPECT_GT(r.at("total_energy_j").as_number(), 0.0);
}

TEST_F(CliTest, SensitivityCommand) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "20", "--devices", "8",
                     "--stations", "2", "--out", path("s.json")}),
            0);
  ASSERT_EQ(run_cli({"sensitivity", "--scenario", path("s.json")}), 0);
  const io::Json j = io::Json::parse(out_.str());
  EXPECT_EQ(j.at("device_shadow_price_j_per_unit").as_array().size(), 8u);
  EXPECT_EQ(j.at("station_shadow_price_j_per_unit").as_array().size(), 2u);
  for (const io::Json& v : j.at("device_shadow_price_j_per_unit").as_array()) {
    EXPECT_GE(v.as_number(), 0.0);
  }
}

TEST_F(CliTest, TraceCommand) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "8", "--out", path("s.json")}), 0);
  ASSERT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--out",
                     path("p.json")}),
            0);
  ASSERT_EQ(run_cli({"trace", "--scenario", path("s.json"), "--plan",
                     path("p.json"), "--contention"}),
            0);
  const io::Json j = io::Json::parse(out_.str());
  EXPECT_EQ(j.at("timeline").as_array().size(), 8u);
  EXPECT_TRUE(j.contains("utilization"));
}

TEST_F(CliTest, PortfolioAndBrdAlgorithms) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "10", "--out", path("s.json")}),
            0);
  for (const char* algo : {"portfolio", "brd"}) {
    EXPECT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--algorithm",
                       algo, "--out", path("p.json")}),
              0)
        << algo;
    EXPECT_EQ(run_cli({"evaluate", "--scenario", path("s.json"), "--plan",
                       path("p.json")}),
              0)
        << algo;
  }
}

TEST_F(CliTest, ChurnCommandReportsResilienceCounters) {
  ASSERT_EQ(run_cli({"churn", "--tasks", "30", "--devices", "10", "--stations",
                     "2", "--seed", "3", "--mtbf", "6", "--outage-rate",
                     "0.05", "--horizon", "20"}),
            0)
      << err_.str();
  const io::Json j = io::Json::parse(out_.str());
  EXPECT_DOUBLE_EQ(j.at("tasks").as_number(), 30.0);
  EXPECT_GT(j.at("fault_events").as_number(), 0.0);
  EXPECT_GE(j.at("device_failures").as_number(), 1.0);
  EXPECT_GE(j.at("unsatisfied_rate").as_number(), 0.0);
  EXPECT_LE(j.at("unsatisfied_rate").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(
      j.at("completed").as_number() + j.at("unsatisfied").as_number(), 30.0);
  const io::Json& rungs = j.at("fallback_rungs");
  EXPECT_TRUE(rungs.contains("LP-HTA"));
  EXPECT_TRUE(rungs.contains("HGOS"));
  EXPECT_TRUE(rungs.contains("LocalFirst"));
}

TEST_F(CliTest, ChurnCommandIsDeterministicPerSeed) {
  const std::vector<std::string> argv = {"churn",  "--tasks", "20", "--seed",
                                         "8",      "--mtbf",  "10", "--horizon",
                                         "15"};
  ASSERT_EQ(run_cli(argv), 0) << err_.str();
  const std::string first = out_.str();
  ASSERT_EQ(run_cli(argv), 0);
  EXPECT_EQ(out_.str(), first);
}

// Pins the churn report, byte for byte, on three fault mixes: device
// failures only, device failures with frequent station outages, and the
// defaults. Update a pin only for a deliberate output change.
TEST_F(CliTest, ChurnOutputsArePinned) {
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ull;
    return h;
  };
  const std::vector<std::pair<std::vector<std::string>, std::uint64_t>>
      cases = {
          {{"churn", "--tasks", "300", "--seed", "1", "--mtbf", "5"},
           0xa9f03c6a0ee5175aull},
          {{"churn", "--tasks", "300", "--seed", "2", "--mtbf", "2",
            "--outage-rate", "0.2"},
           0x03d3fdd90dbc6c77ull},
          {{"churn"}, 0x2f4ea07778e17c52ull},
      };
  for (const auto& [argv, pin] : cases) {
    ASSERT_EQ(run_cli(argv), 0) << err_.str();
    EXPECT_EQ(fnv1a(out_.str()), pin)
        << argv.size() << " args: " << std::hex << fnv1a(out_.str());
  }
}

// Pins the churn report on the fault mix no other pin has: link fades,
// cell outages and devices dropping with their cell, on top of device
// failures. Recorded before `mecsched churn` moved onto the serve daemon.
TEST_F(CliTest, ChurnFadeAndOutageOutputsArePinned) {
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ull;
    return h;
  };
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"1", 0x6841049c3f2c61aeull},
      {"4", 0x80e6283025bff943ull},
  };
  for (const auto& [seed, pin] : cases) {
    ASSERT_EQ(run_cli({"churn", "--tasks", "300", "--seed", seed, "--mtbf",
                       "5", "--fade-rate", "0.1", "--outage-rate", "0.1",
                       "--correlated-prob", "0.5"}),
              0)
        << err_.str();
    EXPECT_EQ(fnv1a(out_.str()), pin)
        << "seed " << seed << ": " << std::hex << fnv1a(out_.str());
  }
}

// `mecsched online` JSON, byte for byte: short, medium and long epochs on
// Poisson streams. The long-epoch streams (seeds 7 and 11) lose dozens of
// tasks to expiry before they are ever scheduled; seed 5 sees both expiry
// and scheduler cancellations.
TEST_F(CliTest, OnlineOutputsArePinned) {
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ull;
    return h;
  };
  struct Case {
    const char* tasks;
    const char* seed;
    const char* rate;
    const char* epoch_s;
    std::uint64_t pin;
  };
  const Case cases[] = {
      {"200", "3", "25", "0.1", 0x9bb916e9cdbac01aull},
      {"200", "5", "80", "0.5", 0x4996511f521e3d1bull},
      {"120", "7", "30", "2.0", 0x4baa023a7a848434ull},
      {"60", "11", "10", "2.0", 0x32a58b085786f0b4ull},
  };
  for (const Case& c : cases) {
    ASSERT_EQ(run_cli({"generate-arrivals", "--tasks", c.tasks, "--seed",
                       c.seed, "--rate", c.rate, "--out", path("s.json")}),
              0)
        << err_.str();
    ASSERT_EQ(run_cli({"online", "--scenario", path("s.json"), "--epoch-s",
                       c.epoch_s}),
              0)
        << err_.str();
    EXPECT_EQ(fnv1a(out_.str()), c.pin)
        << "seed " << c.seed << ": " << std::hex << fnv1a(out_.str());
  }
}

TEST_F(CliTest, ObsFlagsEmitTraceMetricsAndSummary) {
  const std::string trace = path("trace.json");
  const std::string prom = path("metrics.prom");
  ASSERT_EQ(run_cli({"churn", "--tasks", "12", "--devices", "5", "--stations",
                     "2", "--seed", "7", "--horizon", "10", "--trace", trace,
                     "--metrics-out", prom, "--obs-summary"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("wrote trace"), std::string::npos);
  EXPECT_NE(out_.str().find("wrote metrics"), std::string::npos);

  // The trace must be well-formed JSON and contain the solver-pipeline and
  // epoch-loop spans: churn runs on the serve daemon.
  const io::Json doc = io::Json::parse(io::read_file(trace));
  const io::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  std::set<std::string> names;
  for (const io::Json& e : events) names.insert(e.at("name").as_string());
  for (const char* expected :
       {"cli.churn", "serve.run", "serve.epoch", "serve.stage.solve",
        "assign.instance", "lp.simplex.solve", "lp_hta.relax",
        "lp_hta.round", "lp_hta.repair"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  const std::string metrics = io::read_file(prom);
  EXPECT_NE(metrics.find("mecsched_serve_epochs_total"), std::string::npos);
  EXPECT_NE(metrics.find("mecsched_lp_simplex_pivots_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("_bucket{le="), std::string::npos);
  // One distribution per measurement: no rolling-window gauge families.
  EXPECT_EQ(metrics.find("_window_"), std::string::npos);

  // --obs-summary prints the registry as a table, one row per metric.
  EXPECT_NE(out_.str().find("serve.epoch.seconds"), std::string::npos);
  EXPECT_NE(out_.str().find("serve.epoch.solve_ms"), std::string::npos);
  EXPECT_EQ(out_.str().find(".window"), std::string::npos);

  // A serve run times each epoch's HtaInstance construction.
  ASSERT_EQ(run_cli({"serve", "--devices", "60", "--stations", "4",
                     "--epochs", "3", "--rate", "40", "--seed", "5",
                     "--obs-summary"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("assign.instance.seconds"), std::string::npos);
}

TEST_F(CliTest, ObsFlagsWorkOnAnyCommand) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "5", "--seed", "2", "--out",
                     path("s.json"), "--obs-summary"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("cli.generate.seconds"), std::string::npos);
}

TEST_F(CliTest, FlightOutRecordsChaosFaultsAcrossLayers) {
  const std::string flight = path("flight.jsonl");
  ASSERT_EQ(run_cli({"chaos", "--cells", "4", "--tasks", "10", "--devices",
                     "4", "--stations", "2", "--seed", "7", "--error-prob",
                     "0.8", "--flight-out", flight}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("wrote flight record"), std::string::npos);
  // The recorder is per-invocation: off again once run() returns.
  EXPECT_FALSE(obs::FlightRecorder::global().enabled());

  const std::string jsonl = io::read_file(flight);
  // Injected faults surface as lp-layer error records, and the fallback
  // chain's degradation shows up as control-layer rung records.
  EXPECT_NE(jsonl.find("\"layer\":\"lp\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"layer\":\"control\""), std::string::npos);
  EXPECT_NE(jsonl.find("injected solver fault"), std::string::npos);
  // Every line parses as standalone JSON.
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const io::Json record = io::Json::parse(line);
    EXPECT_TRUE(record.contains("seq"));
    EXPECT_TRUE(record.contains("status"));
    ++parsed;
  }
  EXPECT_GT(parsed, 0u);
}

TEST_F(CliTest, FlightOutCapturesDeadlineExpiryEvenWhenTheCommandFails) {
  const std::string flight = path("flight.jsonl");
  // A 1-microsecond budget is gone before the first LP iteration; the
  // sweep degrades/fails, but the flight record must still be written and
  // must name the deadline as the terminal status.
  const int code =
      run_cli({"sweep", "--grid", "smoke", "--budget-ms", "0.001",
               "--flight-out", flight});
  (void)code;  // pass or fail, the post-mortem artifact is the contract
  EXPECT_NE(out_.str().find("wrote flight record"), std::string::npos);
  const std::string jsonl = io::read_file(flight);
  EXPECT_NE(jsonl.find("\"status\":\"deadline\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"deadline_residual_ms\":"), std::string::npos);
}

TEST_F(CliTest, ReportRendersAFlightRecordPostMortem) {
  const std::string flight = path("flight.jsonl");
  ASSERT_EQ(run_cli({"chaos", "--cells", "3", "--tasks", "10", "--devices",
                     "4", "--stations", "2", "--seed", "7", "--error-prob",
                     "0.8", "--flight-out", flight}),
            0)
      << err_.str();
  ASSERT_EQ(run_cli({"report", "--flight", flight, "--top", "2"}), 0)
      << err_.str();
  EXPECT_NE(out_.str().find("flight report:"), std::string::npos);
  EXPECT_NE(out_.str().find("outcomes by layer/engine/status"),
            std::string::npos);
  EXPECT_NE(out_.str().find("slowest solves"), std::string::npos);
  EXPECT_NE(out_.str().find("sweep_cell"), std::string::npos);
}

TEST_F(CliTest, ReportRequiresAFlightFile) {
  EXPECT_EQ(run_cli({"report"}), 1);
  EXPECT_NE(err_.str().find("--flight"), std::string::npos);
}

TEST_F(CliTest, TraceFlagRequiresValue) {
  EXPECT_EQ(run_cli({"generate", "--tasks", "3", "--trace"}), 1);
  EXPECT_NE(err_.str().find("requires a file"), std::string::npos);
}

TEST_F(CliTest, ExactAlgorithmOnTinyScenario) {
  ASSERT_EQ(run_cli({"generate", "--tasks", "6", "--devices", "3",
                     "--stations", "1", "--out", path("s.json")}),
            0);
  EXPECT_EQ(run_cli({"assign", "--scenario", path("s.json"), "--algorithm",
                     "exact", "--out", path("p.json")}),
            0);
  EXPECT_EQ(run_cli({"evaluate", "--scenario", path("s.json"), "--plan",
                     path("p.json")}),
            0);
}

TEST_F(CliTest, SweepListsGrids) {
  ASSERT_EQ(run_cli({"sweep", "--list"}), 0) << err_.str();
  for (const char* grid :
       {"fig2a", "fig2b", "fig3", "fig4a", "fig4b", "smoke"}) {
    EXPECT_NE(out_.str().find(grid), std::string::npos) << grid;
  }
}

TEST_F(CliTest, SweepRejectsUnknownGrid) {
  EXPECT_EQ(run_cli({"sweep", "--grid", "fig99"}), 1);
  EXPECT_NE(err_.str().find("unknown grid"), std::string::npos);
}

// The headline determinism guarantee: the sweep CSV is byte-identical at
// every --jobs count.
TEST_F(CliTest, SweepCsvIsByteIdenticalAcrossJobCounts) {
  ASSERT_EQ(run_cli({"sweep", "--grid", "smoke", "--csv", "--jobs", "1"}), 0)
      << err_.str();
  const std::string serial = out_.str();
  EXPECT_NE(serial.find("tasks,LP-HTA,HGOS,AllToC,AllOffload"),
            std::string::npos);

  ASSERT_EQ(run_cli({"sweep", "--grid", "smoke", "--csv", "--jobs", "8"}), 0)
      << err_.str();
  EXPECT_EQ(out_.str(), serial);
}

// Pins `sweep --grid <g> --csv`, byte for byte, on every grid. The figure
// grids are the paper's Figs. 2-4 tables; fig3's pin is the CSV the
// fig3_unsatisfied_rate bench binary wrote before it ran this grid. Update
// a pin only for a deliberate output change.
TEST_F(CliTest, SweepOutputsArePinned) {
  const auto fnv1a = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) h = (h ^ c) * 0x100000001b3ull;
    return h;
  };
  const std::pair<const char*, std::uint64_t> cases[] = {
      {"smoke", 0x7f85b63055449cf2ull}, {"fig2a", 0x0fca96800f533d5eull},
      {"fig2b", 0xaf1380f6304b6ea9ull}, {"fig3", 0xd89b012e026f3109ull},
      {"fig4a", 0x34c2bb03c3390fdcull}, {"fig4b", 0x97842b6275431635ull},
  };
  for (const auto& [grid, pin] : cases) {
    ASSERT_EQ(run_cli({"sweep", "--grid", grid, "--csv"}), 0) << err_.str();
    EXPECT_EQ(fnv1a(out_.str()), pin)
        << grid << ": " << std::hex << fnv1a(out_.str());
  }
}

TEST_F(CliTest, SweepTableReportsJobs) {
  ASSERT_EQ(run_cli({"sweep", "--grid", "smoke", "--reps", "1", "--jobs",
                     "2"}),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("jobs=2"), std::string::npos);
  EXPECT_EQ(out_.str().find("cache:"), std::string::npos);
}

TEST_F(CliTest, SweepWritesCsvFile) {
  ASSERT_EQ(run_cli({"sweep", "--grid", "smoke", "--reps", "1", "--out",
                     path("sweep.csv")}),
            0)
      << err_.str();
  const std::string csv = io::read_file(path("sweep.csv"));
  EXPECT_NE(csv.find("tasks,LP-HTA"), std::string::npos);
  std::remove(path("sweep.csv").c_str());
}

TEST_F(CliTest, JobsFlagRejectsGarbage) {
  EXPECT_EQ(run_cli({"sweep", "--grid", "smoke", "--jobs", "zero"}), 1);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
}

}  // namespace
}  // namespace mecsched::cli
