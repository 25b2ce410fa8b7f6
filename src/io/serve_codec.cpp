#include "io/serve_codec.h"

#include <utility>
#include <vector>

#include "io/codec.h"

namespace mecsched::io {
namespace {

std::string kind_name(serve::EventKind k) {
  switch (k) {
    case serve::EventKind::kTaskArrival:
      return "arrival";
    case serve::EventKind::kDeviceJoin:
      return "join";
    case serve::EventKind::kDeviceLeave:
      return "leave";
    case serve::EventKind::kDeviceMigrate:
      return "migrate";
    case serve::EventKind::kStationDown:
      return "station-down";
    case serve::EventKind::kStationUp:
      return "station-up";
    case serve::EventKind::kLinkFade:
      return "link-fade";
  }
  throw JsonError("unknown serve event kind");
}

serve::EventKind kind_from_name(const std::string& name) {
  if (name == "arrival") return serve::EventKind::kTaskArrival;
  if (name == "join") return serve::EventKind::kDeviceJoin;
  if (name == "leave") return serve::EventKind::kDeviceLeave;
  if (name == "migrate") return serve::EventKind::kDeviceMigrate;
  if (name == "station-down") return serve::EventKind::kStationDown;
  if (name == "station-up") return serve::EventKind::kStationUp;
  if (name == "link-fade") return serve::EventKind::kLinkFade;
  throw JsonError("unknown serve event kind: " + name);
}

}  // namespace

Json serve_event_to_json(const serve::Event& event) {
  JsonObject o;
  o["time_s"] = event.time_s;
  o["kind"] = kind_name(event.kind);
  switch (event.kind) {
    case serve::EventKind::kTaskArrival:
      o["task"] = task_to_json(event.task);
      break;
    case serve::EventKind::kDeviceLeave:
      o["device"] = event.device;
      break;
    case serve::EventKind::kDeviceJoin:
    case serve::EventKind::kDeviceMigrate:
      o["device"] = event.device;
      o["station"] = event.station;
      break;
    case serve::EventKind::kStationDown:
    case serve::EventKind::kStationUp:
      o["station"] = event.station;
      break;
    case serve::EventKind::kLinkFade:
      o["device"] = event.device;
      o["factor"] = event.factor;
      break;
  }
  return Json(std::move(o));
}

serve::Event serve_event_from_json(const Json& j) {
  const double time_s = j.at("time_s").as_number();
  switch (kind_from_name(j.at("kind").as_string())) {
    case serve::EventKind::kTaskArrival:
      return serve::Event::arrival(time_s, task_from_json(j.at("task")));
    case serve::EventKind::kDeviceJoin:
      return serve::Event::join(
          time_s, static_cast<std::size_t>(j.at("device").as_number()),
          static_cast<std::size_t>(j.at("station").as_number()));
    case serve::EventKind::kDeviceLeave:
      return serve::Event::leave(
          time_s, static_cast<std::size_t>(j.at("device").as_number()));
    case serve::EventKind::kDeviceMigrate:
      return serve::Event::migrate(
          time_s, static_cast<std::size_t>(j.at("device").as_number()),
          static_cast<std::size_t>(j.at("station").as_number()));
    case serve::EventKind::kStationDown:
      return serve::Event::station_down(
          time_s, static_cast<std::size_t>(j.at("station").as_number()));
    case serve::EventKind::kStationUp:
      return serve::Event::station_up(
          time_s, static_cast<std::size_t>(j.at("station").as_number()));
    case serve::EventKind::kLinkFade:
      return serve::Event::link_fade(
          time_s, static_cast<std::size_t>(j.at("device").as_number()),
          j.at("factor").as_number());
  }
  throw JsonError("unknown serve event kind");
}

Json serve_workload_to_json(const workload::ServeWorkload& workload) {
  JsonObject root;
  root["topology"] = topology_to_json(workload.universe);
  JsonArray events;
  events.reserve(workload.trace.size());
  for (const serve::Event& e : workload.trace.events()) {
    events.push_back(serve_event_to_json(e));
  }
  root["events"] = Json(std::move(events));
  return Json(std::move(root));
}

workload::ServeWorkload serve_workload_from_json(const Json& j) {
  mec::Topology universe = topology_from_json(j.at("topology"));
  std::vector<serve::Event> events;
  for (const Json& ej : j.at("events").as_array()) {
    events.push_back(serve_event_from_json(ej));
  }
  serve::Trace trace(std::move(events));
  trace.validate_against(universe.num_devices(), universe.num_base_stations());
  return workload::ServeWorkload{std::move(universe), std::move(trace)};
}

}  // namespace mecsched::io
