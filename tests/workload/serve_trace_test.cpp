// Serve-trace generator: substream determinism and the epoch-prefix
// property (see serve_trace.h).
#include "workload/serve_trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.h"

namespace mecsched::workload {
namespace {

ServeTraceConfig small_config() {
  ServeTraceConfig cfg;
  cfg.scenario.num_devices = 20;
  cfg.scenario.num_base_stations = 4;
  cfg.scenario.seed = 3;
  cfg.epochs = 4;
  cfg.epoch_s = 0.5;
  cfg.arrival_rate_per_s = 20.0;
  cfg.join_rate_per_s = 1.0;
  cfg.leave_rate_per_s = 2.0;
  cfg.migrate_rate_per_s = 2.0;
  return cfg;
}

std::string fingerprint(const serve::Event& e) {
  std::ostringstream s;
  s.precision(17);
  s << e.time_s << '|' << static_cast<int>(e.kind) << '|' << e.device << '|'
    << e.station << '|' << e.task.id.user << '|' << e.task.id.index << '|'
    << e.task.local_bytes << '|' << e.task.external_bytes << '|'
    << e.task.external_owner << '|' << e.task.resource << '|'
    << e.task.deadline_s;
  return s.str();
}

TEST(ServeTraceTest, SameSeedYieldsIdenticalTrace) {
  const ServeWorkload a = make_serve_workload(small_config());
  const ServeWorkload b = make_serve_workload(small_config());
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(fingerprint(a.trace.events()[i]),
              fingerprint(b.trace.events()[i]));
  }
}

TEST(ServeTraceTest, DifferentSeedsDiffer) {
  ServeTraceConfig other = small_config();
  other.scenario.seed = 4;
  const ServeWorkload a = make_serve_workload(small_config());
  const ServeWorkload b = make_serve_workload(other);
  bool any_diff = a.trace.size() != b.trace.size();
  for (std::size_t i = 0; !any_diff && i < a.trace.size(); ++i) {
    any_diff = fingerprint(a.trace.events()[i]) !=
               fingerprint(b.trace.events()[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ServeTraceTest, ExtendingTheHorizonPreservesThePrefix) {
  // Epoch k draws from substreams keyed by (kind, k), so a 4-epoch trace
  // must be exactly the first 4 epochs of an 8-epoch trace.
  ServeTraceConfig longer = small_config();
  longer.epochs = 8;
  const ServeWorkload short_w = make_serve_workload(small_config());
  const ServeWorkload long_w = make_serve_workload(longer);
  ASSERT_GE(long_w.trace.size(), short_w.trace.size());
  for (std::size_t i = 0; i < short_w.trace.size(); ++i) {
    EXPECT_EQ(fingerprint(short_w.trace.events()[i]),
              fingerprint(long_w.trace.events()[i]))
        << "event " << i;
  }
}

TEST(ServeTraceTest, EventsAreSortedAndWithinTheHorizon) {
  const ServeWorkload w = make_serve_workload(small_config());
  const ServeTraceConfig cfg = small_config();
  double prev = 0.0;
  for (const serve::Event& e : w.trace.events()) {
    EXPECT_GE(e.time_s, prev);
    prev = e.time_s;
    EXPECT_LT(e.time_s, static_cast<double>(cfg.epochs) * cfg.epoch_s);
  }
  EXPECT_GT(w.trace.arrivals(), 0u);
  EXPECT_GT(w.trace.size(), w.trace.arrivals());
}

TEST(ServeTraceTest, TraceValidatesAgainstItsOwnUniverse) {
  const ServeWorkload w = make_serve_workload(small_config());
  EXPECT_NO_THROW(w.trace.validate_against(w.universe.num_devices(),
                                           w.universe.num_base_stations()));
}

TEST(ServeTraceTest, ZeroChurnRatesYieldArrivalsOnly) {
  ServeTraceConfig cfg = small_config();
  cfg.join_rate_per_s = 0.0;
  cfg.leave_rate_per_s = 0.0;
  cfg.migrate_rate_per_s = 0.0;
  const ServeWorkload w = make_serve_workload(cfg);
  EXPECT_EQ(w.trace.size(), w.trace.arrivals());
  EXPECT_GT(w.trace.arrivals(), 0u);
}

TEST(ServeTraceTest, RejectsBadConfigs) {
  ServeTraceConfig cfg = small_config();
  cfg.epochs = 0;
  EXPECT_THROW(make_serve_workload(cfg), ModelError);
  cfg = small_config();
  cfg.epoch_s = 0.0;
  EXPECT_THROW(make_serve_workload(cfg), ModelError);
  cfg = small_config();
  cfg.leave_rate_per_s = -1.0;
  EXPECT_THROW(make_serve_workload(cfg), ModelError);
}

TEST(ServeTraceTest, TaskIndicesArePerIssuerAndDense) {
  const ServeWorkload w = make_serve_workload(small_config());
  std::vector<std::size_t> next(w.universe.num_devices(), 0);
  for (const serve::Event& e : w.trace.events()) {
    if (e.kind != serve::EventKind::kTaskArrival) continue;
    EXPECT_EQ(e.task.id.index, next[e.task.id.user]++);
  }
}

}  // namespace
}  // namespace mecsched::workload
