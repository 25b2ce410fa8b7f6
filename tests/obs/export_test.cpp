// The exporters' outputs are contracts with external tools: the Chrome
// trace must parse as JSON (Perfetto refuses otherwise) and the Prometheus
// text must follow the exposition format. Parse the former with the repo's
// own io::Json to make well-formedness a hard assertion.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "io/json.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::obs {
namespace {

TEST(ChromeExportTest, EmptyTracerIsValidJson) {
  Tracer t;
  const io::Json doc = io::Json::parse(to_chrome_json(t));
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped_events").as_number(), 0.0);
}

TEST(ChromeExportTest, EventsCarryPhaseTimestampAndArgs) {
  Tracer t;
  t.enable(16);
  t.complete("solve", "lp", 100, 250, "\"pivots\":12");
  t.instant("rung_failed", "control");
  t.disable();

  const io::Json doc = io::Json::parse(to_chrome_json(t));
  const io::JsonArray& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);

  const io::Json& complete = events[0];
  EXPECT_EQ(complete.at("name").as_string(), "solve");
  EXPECT_EQ(complete.at("cat").as_string(), "lp");
  EXPECT_EQ(complete.at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(complete.at("ts").as_number(), 100.0);
  EXPECT_DOUBLE_EQ(complete.at("dur").as_number(), 250.0);
  EXPECT_DOUBLE_EQ(complete.at("args").at("pivots").as_number(), 12.0);

  const io::Json& instant = events[1];
  EXPECT_EQ(instant.at("ph").as_string(), "i");
  EXPECT_EQ(instant.at("s").as_string(), "t");
  EXPECT_FALSE(instant.contains("dur"));
}

TEST(ChromeExportTest, EscapesHostileNames) {
  Tracer t;
  t.enable(4);
  t.instant("quote\" back\\slash\nnewline\ttab", "cat\r");
  t.disable();
  const io::Json doc = io::Json::parse(to_chrome_json(t));
  EXPECT_EQ(doc.at("traceEvents").as_array()[0].at("name").as_string(),
            "quote\" back\\slash\nnewline\ttab");
}

TEST(ChromeExportTest, ReportsDroppedEvents) {
  Tracer t;
  t.enable(2);
  for (int i = 0; i < 5; ++i) t.instant("x", "cat");
  t.disable();
  const io::Json doc = io::Json::parse(to_chrome_json(t));
  EXPECT_DOUBLE_EQ(doc.at("otherData").at("dropped_events").as_number(), 3.0);
}

TEST(PrometheusExportTest, RendersAllThreeKinds) {
  Registry reg;
  reg.counter("lp.simplex.pivots").add(42);
  reg.gauge("lp_hta.last_integrality_gap").set(0.125);
  reg.histogram("controller.epoch.seconds").observe(0.5);
  reg.histogram("controller.epoch.seconds").observe(2.0);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE mecsched_lp_simplex_pivots_total counter\n"
                      "mecsched_lp_simplex_pivots_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mecsched_lp_hta_last_integrality_gap gauge\n"
                      "mecsched_lp_hta_last_integrality_gap 0.125\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE mecsched_controller_epoch_seconds histogram"),
      std::string::npos);
  EXPECT_NE(text.find("mecsched_controller_epoch_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(
      text.find("mecsched_controller_epoch_seconds_bucket{le=\"+Inf\"} 2"),
      std::string::npos);
  EXPECT_NE(text.find("mecsched_controller_epoch_seconds_sum 2.5"),
            std::string::npos);
  EXPECT_NE(text.find("mecsched_controller_epoch_seconds_count 2"),
            std::string::npos);
}

TEST(PrometheusExportTest, SparseKernelSeriesFormatCorrectly) {
  // The lp.sparse.* family mixes counters, gauges and a histogram; the
  // dotted names must sanitize to mecsched_lp_sparse_* with the _total
  // suffix only on counters.
  Registry reg;
  reg.counter("lp.sparse.ipm_solves").add(3);
  reg.counter("lp.sparse.pattern_cache_hits").add(17);
  reg.counter("lp.sparse.pattern_cache_misses").add();
  reg.gauge("lp.sparse.last_fill_ratio").set(1.25);
  reg.gauge("lp.sparse.last_factor_nnz").set(731);
  reg.histogram("lp.sparse.fill_ratio").observe(1.25);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE mecsched_lp_sparse_ipm_solves_total counter\n"
                      "mecsched_lp_sparse_ipm_solves_total 3\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("# TYPE mecsched_lp_sparse_pattern_cache_hits_total counter\n"
                "mecsched_lp_sparse_pattern_cache_hits_total 17\n"),
      std::string::npos);
  EXPECT_NE(text.find("mecsched_lp_sparse_pattern_cache_misses_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mecsched_lp_sparse_last_fill_ratio gauge\n"
                      "mecsched_lp_sparse_last_fill_ratio 1.25\n"),
            std::string::npos);
  EXPECT_NE(text.find("mecsched_lp_sparse_last_factor_nnz 731\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE mecsched_lp_sparse_fill_ratio histogram"),
            std::string::npos);
  EXPECT_NE(text.find("mecsched_lp_sparse_fill_ratio_count 1"),
            std::string::npos);
  // Gauges must never grow a _total suffix.
  EXPECT_EQ(text.find("mecsched_lp_sparse_last_fill_ratio_total"),
            std::string::npos);
}

TEST(SummaryTableTest, SparseKernelCountersAppearInSummary) {
  Registry reg;
  reg.counter("lp.sparse.ipm_solves").add(2);
  reg.counter("lp.sparse.simplex_pricing_solves").add(5);
  reg.gauge("lp.sparse.last_nnz").set(730);
  std::ostringstream os;
  os << summary_table(reg);
  const std::string text = os.str();
  for (const char* needle :
       {"lp.sparse.ipm_solves", "lp.sparse.simplex_pricing_solves",
        "lp.sparse.last_nnz"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(PrometheusExportTest, BucketCountsAreCumulative) {
  Registry reg;
  Histogram& h = reg.histogram("h");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(50.0);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("mecsched_h_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("mecsched_h_bucket{le=\"100\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("mecsched_h_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
}

TEST(SummaryTableTest, ListsEveryMetricWithItsKind) {
  Registry reg;
  reg.counter("events").add(3);
  reg.gauge("gap").set(1.5);
  reg.histogram("dur.seconds").observe(2.0);
  reg.histogram("empty.seconds");

  std::ostringstream os;
  os << summary_table(reg);
  const std::string text = os.str();
  for (const char* needle :
       {"metric", "events", "counter", "gap", "gauge", "dur.seconds",
        "histogram", "empty.seconds"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(SummaryTableTest, HistogramRowsCarryPercentileColumns) {
  Registry reg;
  Histogram& h = reg.histogram("dur.seconds");
  for (int i = 0; i < 100; ++i) h.observe(0.5);
  reg.counter("events").add(1);

  std::ostringstream os;
  os << summary_table(reg);
  const std::string text = os.str();
  // Deterministic column order with the new percentile columns appended.
  const std::size_t p50 = text.find("p50");
  const std::size_t p90 = text.find("p90");
  const std::size_t p99 = text.find("p99");
  ASSERT_NE(p50, std::string::npos);
  ASSERT_NE(p90, std::string::npos);
  ASSERT_NE(p99, std::string::npos);
  EXPECT_LT(text.find("mean"), p50);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // All mass at 0.5: the percentiles clamp to the observed value, while
  // counter rows pad the columns with "-".
  EXPECT_NE(text.find("0.5"), std::string::npos);
  EXPECT_NE(text.find('-'), std::string::npos);
}

}  // namespace
}  // namespace mecsched::obs
