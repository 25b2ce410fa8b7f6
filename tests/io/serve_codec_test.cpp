// Serve workload codec: JSON round trips preserve the trace byte-exactly
// (order included), which is what makes `serve --replay` reproducible.
#include "io/serve_codec.h"

#include <gtest/gtest.h>

#include "io/json.h"
#include "workload/serve_trace.h"

namespace mecsched::io {
namespace {

workload::ServeWorkload sample_workload() {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices = 15;
  cfg.scenario.num_base_stations = 3;
  cfg.scenario.seed = 21;
  cfg.epochs = 3;
  cfg.arrival_rate_per_s = 15.0;
  cfg.leave_rate_per_s = 1.0;
  cfg.join_rate_per_s = 1.0;
  cfg.migrate_rate_per_s = 1.0;
  return workload::make_serve_workload(cfg);
}

TEST(ServeCodecTest, WorkloadRoundTripsThroughJsonText) {
  const workload::ServeWorkload original = sample_workload();
  const std::string text = serve_workload_to_json(original).dump();
  const workload::ServeWorkload loaded =
      serve_workload_from_json(Json::parse(text));

  ASSERT_EQ(loaded.trace.size(), original.trace.size());
  EXPECT_EQ(loaded.trace.arrivals(), original.trace.arrivals());
  EXPECT_EQ(loaded.universe.num_devices(), original.universe.num_devices());
  for (std::size_t i = 0; i < original.trace.size(); ++i) {
    const serve::Event& a = original.trace.events()[i];
    const serve::Event& b = loaded.trace.events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.station, b.station);
    if (a.kind == serve::EventKind::kTaskArrival) {
      EXPECT_EQ(a.task.id.user, b.task.id.user);
      EXPECT_EQ(a.task.id.index, b.task.id.index);
      EXPECT_DOUBLE_EQ(a.task.local_bytes, b.task.local_bytes);
      EXPECT_DOUBLE_EQ(a.task.external_bytes, b.task.external_bytes);
      EXPECT_EQ(a.task.external_owner, b.task.external_owner);
      EXPECT_DOUBLE_EQ(a.task.resource, b.task.resource);
      EXPECT_DOUBLE_EQ(a.task.deadline_s, b.task.deadline_s);
    }
  }
  // Serializing again is byte-stable (sorted keys, same numbers).
  EXPECT_EQ(serve_workload_to_json(loaded).dump(), text);
}

TEST(ServeCodecTest, EventCodecCoversEveryKind) {
  mec::Task t;
  t.id = {2, 5};
  t.local_bytes = 100.0;
  t.external_owner = 2;
  t.resource = 1.0;
  t.deadline_s = 1.0;
  const serve::Event events[] = {
      serve::Event::arrival(0.25, t),
      serve::Event::join(0.5, 1, 2),
      serve::Event::leave(0.75, 3),
      serve::Event::migrate(1.0, 4, 0),
      serve::Event::station_down(1.25, 1),
      serve::Event::station_up(1.5, 1),
      serve::Event::link_fade(1.75, 3, 0.3125),
  };
  for (const serve::Event& e : events) {
    const serve::Event back = serve_event_from_json(serve_event_to_json(e));
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_DOUBLE_EQ(back.time_s, e.time_s);
    EXPECT_EQ(back.device, e.device);
    if (e.kind == serve::EventKind::kDeviceJoin ||
        e.kind == serve::EventKind::kDeviceMigrate ||
        e.kind == serve::EventKind::kStationDown ||
        e.kind == serve::EventKind::kStationUp) {
      EXPECT_EQ(back.station, e.station);
    }
    EXPECT_EQ(back.factor, e.factor);
  }
}

TEST(ServeCodecTest, UnknownKindIsAnError) {
  Json j = serve_event_to_json(serve::Event::leave(0.0, 0));
  j.as_object()["kind"] = Json(std::string("teleport"));
  EXPECT_THROW(serve_event_from_json(j), JsonError);
}

}  // namespace
}  // namespace mecsched::io
