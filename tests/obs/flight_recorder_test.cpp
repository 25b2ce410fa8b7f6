#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "io/json.h"
#include "obs/export.h"

namespace mecsched::obs {
namespace {

// The recorder is a process-wide singleton; every test starts from a
// clean, enabled state and disables on the way out so the rest of the
// suite sees the cheap default.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::global().clear();
    FlightRecorder::global().enable();
  }
  void TearDown() override {
    FlightRecorder::global().disable();
    FlightRecorder::global().clear();
  }
};

SolveRecord make_record(const std::string& status, double seconds) {
  SolveRecord r;
  r.layer = "lp";
  r.engine = "simplex";
  r.status = status;
  r.seconds = seconds;
  return r;
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsNothingAndStoresNothing) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.disable();
  flight.record(make_record("ok", 1.0));
  EXPECT_EQ(flight.recorded(), 0u);
  EXPECT_EQ(flight.dropped(), 0u);
  EXPECT_TRUE(flight.snapshot().empty());
}

TEST_F(FlightRecorderTest, SnapshotIsInRecordOrder) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.record(make_record("ok", 1.0));
  flight.record(make_record("error", 2.0));
  flight.record(make_record("deadline", 3.0));
  const std::vector<SolveRecord> records = flight.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_LT(records[1].seq, records[2].seq);
  EXPECT_EQ(records[0].status, "ok");
  EXPECT_EQ(records[2].status, "deadline");
}

TEST_F(FlightRecorderTest, RingOverflowCountsDrops) {
  FlightRecorder& flight = FlightRecorder::global();
  // One ring of the old total, 8 rings x 4,096: the record past it
  // evicts the first.
  constexpr std::size_t kCapacity = 8 * 4096;
  for (std::size_t i = 0; i <= kCapacity; ++i) {
    flight.record(make_record("ok", static_cast<double>(i)));
  }
  EXPECT_EQ(flight.recorded(), kCapacity + 1);
  EXPECT_EQ(flight.dropped(), 1u);
  const std::vector<SolveRecord> records = flight.snapshot();
  ASSERT_EQ(records.size(), kCapacity);
  EXPECT_EQ(records.front().seq, 1u);  // seq 0 was overwritten
  EXPECT_EQ(records.front().seconds, 1.0);
  EXPECT_EQ(records.back().seq, kCapacity);
}

TEST_F(FlightRecorderTest, HoldDivertsThisThreadsRecordsUntilItEnds) {
  FlightRecorder& flight = FlightRecorder::global();
  std::vector<SolveRecord> held;
  {
    const FlightRecorder::Hold hold(held);
    flight.record(make_record("held", 1.0));
    std::thread other([&flight] { flight.record(make_record("ring", 2.0)); });
    other.join();
  }
  flight.record(make_record("after", 3.0));
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].status, "held");
  const std::vector<SolveRecord> records = flight.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "ring");
  EXPECT_EQ(records[1].status, "after");
}

TEST_F(FlightRecorderTest, ResidualMsIsNaNForUnlimitedDeadline) {
  EXPECT_TRUE(std::isnan(FlightRecorder::residual_ms(Deadline{})));
  const Deadline d = Deadline::after_ms(1e6);
  const double residual = FlightRecorder::residual_ms(d);
  EXPECT_TRUE(std::isfinite(residual));
  EXPECT_GT(residual, 0.0);
}

TEST_F(FlightRecorderTest, JsonlRoundTripsThroughTheJsonParser) {
  FlightRecorder& flight = FlightRecorder::global();
  SolveRecord r = make_record("audit-error", 0.25);
  r.detail = "ipm said \"stalled\"\n";  // needs escaping
  r.iterations = 42;
  r.deadline_hit = true;
  r.chaos_hits = 2;
  r.audit = "objective mismatch";
  flight.record(std::move(r));
  flight.record(make_record("ok", 0.5));

  const std::string jsonl = to_flight_jsonl(flight);
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl = jsonl.find('\n'); nl != std::string::npos;
       nl = jsonl.find('\n', start)) {
    lines.push_back(jsonl.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 2u);

  const io::Json first = io::Json::parse(lines[0]);
  EXPECT_EQ(first.at("layer").as_string(), "lp");
  EXPECT_EQ(first.at("status").as_string(), "audit-error");
  EXPECT_EQ(first.at("detail").as_string(), "ipm said \"stalled\"\n");
  EXPECT_DOUBLE_EQ(first.at("iterations").as_number(), 42.0);
  EXPECT_TRUE(first.at("deadline_hit").as_bool());
  EXPECT_DOUBLE_EQ(first.at("chaos_hits").as_number(), 2.0);
  // NaN residual serializes as null, not as invalid JSON.
  EXPECT_TRUE(first.at("deadline_residual_ms").is_null());
  EXPECT_EQ(io::Json::parse(lines[1]).at("status").as_string(), "ok");
}

TEST_F(FlightRecorderTest, ConcurrentRecordsAllLand) {
  FlightRecorder& flight = FlightRecorder::global();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&flight] {
      for (int i = 0; i < kPerThread; ++i) {
        flight.record(SolveRecord{});
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(flight.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<SolveRecord> records = flight.snapshot();
  EXPECT_EQ(records.size() + flight.dropped(), flight.recorded());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq);  // strictly ordered
  }
}

TEST_F(FlightRecorderTest, ClearResetsSequenceNumbers) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.record(make_record("ok", 1.0));
  flight.clear();
  EXPECT_EQ(flight.recorded(), 0u);
  flight.enable();
  flight.record(make_record("ok", 2.0));
  const std::vector<SolveRecord> records = flight.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 0u);
}

}  // namespace
}  // namespace mecsched::obs
