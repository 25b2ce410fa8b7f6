#include "io/codec.h"

#include <fstream>
#include <sstream>

#include "common/error.h"

namespace mecsched::io {
namespace {

Json radio_to_json(const mec::RadioProfile& r) {
  JsonObject o;
  o["download_bps"] = r.download_bps;
  o["upload_bps"] = r.upload_bps;
  o["tx_power_w"] = r.tx_power_w;
  o["rx_power_w"] = r.rx_power_w;
  return Json(std::move(o));
}

mec::RadioProfile radio_from_json(const Json& j) {
  mec::RadioProfile r;
  r.download_bps = j.at("download_bps").as_number();
  r.upload_bps = j.at("upload_bps").as_number();
  r.tx_power_w = j.at("tx_power_w").as_number();
  r.rx_power_w = j.at("rx_power_w").as_number();
  return r;
}

Json params_to_json(const mec::SystemParameters& p) {
  JsonObject o;
  o["kappa"] = p.kappa;
  o["cycles_per_byte"] = p.cycles_per_byte;
  o["result_ratio"] = p.result_ratio;
  o["device_min_hz"] = p.device_min_hz;
  o["device_max_hz"] = p.device_max_hz;
  o["base_station_hz"] = p.base_station_hz;
  o["cloud_hz"] = p.cloud_hz;
  o["bs_to_bs_latency_s"] = p.bs_to_bs_latency_s;
  o["bs_to_bs_rate_bps"] = p.bs_to_bs_rate_bps;
  o["bs_to_bs_power_w"] = p.bs_to_bs_power_w;
  o["bs_to_cloud_latency_s"] = p.bs_to_cloud_latency_s;
  o["bs_to_cloud_rate_bps"] = p.bs_to_cloud_rate_bps;
  o["bs_to_cloud_power_w"] = p.bs_to_cloud_power_w;
  return Json(std::move(o));
}

mec::SystemParameters params_from_json(const Json& j) {
  mec::SystemParameters d;  // defaults for absent keys
  d.kappa = j.number_or("kappa", d.kappa);
  d.cycles_per_byte = j.number_or("cycles_per_byte", d.cycles_per_byte);
  d.result_ratio = j.number_or("result_ratio", d.result_ratio);
  d.device_min_hz = j.number_or("device_min_hz", d.device_min_hz);
  d.device_max_hz = j.number_or("device_max_hz", d.device_max_hz);
  d.base_station_hz = j.number_or("base_station_hz", d.base_station_hz);
  d.cloud_hz = j.number_or("cloud_hz", d.cloud_hz);
  d.bs_to_bs_latency_s = j.number_or("bs_to_bs_latency_s", d.bs_to_bs_latency_s);
  d.bs_to_bs_rate_bps = j.number_or("bs_to_bs_rate_bps", d.bs_to_bs_rate_bps);
  d.bs_to_bs_power_w = j.number_or("bs_to_bs_power_w", d.bs_to_bs_power_w);
  d.bs_to_cloud_latency_s =
      j.number_or("bs_to_cloud_latency_s", d.bs_to_cloud_latency_s);
  d.bs_to_cloud_rate_bps =
      j.number_or("bs_to_cloud_rate_bps", d.bs_to_cloud_rate_bps);
  d.bs_to_cloud_power_w =
      j.number_or("bs_to_cloud_power_w", d.bs_to_cloud_power_w);
  return d;
}

}  // namespace

Json topology_to_json(const mec::Topology& topology) {
  JsonArray devices;
  for (std::size_t i = 0; i < topology.num_devices(); ++i) {
    const mec::Device& d = topology.device(i);
    JsonObject o;
    o["id"] = d.id;
    o["base_station"] = d.base_station;
    o["cpu_hz"] = d.cpu_hz;
    o["radio"] = radio_to_json(d.radio);
    o["max_resource"] = d.max_resource;
    devices.emplace_back(std::move(o));
  }
  JsonArray stations;
  for (std::size_t b = 0; b < topology.num_base_stations(); ++b) {
    const mec::BaseStation& s = topology.base_station(b);
    JsonObject o;
    o["id"] = s.id;
    o["cpu_hz"] = s.cpu_hz;
    o["max_resource"] = s.max_resource;
    stations.emplace_back(std::move(o));
  }
  JsonObject root;
  root["devices"] = Json(std::move(devices));
  root["base_stations"] = Json(std::move(stations));
  root["params"] = params_to_json(topology.params());
  return Json(std::move(root));
}

mec::Topology topology_from_json(const Json& j) {
  std::vector<mec::Device> devices;
  for (const Json& dj : j.at("devices").as_array()) {
    mec::Device d;
    d.id = static_cast<std::size_t>(dj.at("id").as_number());
    d.base_station = static_cast<std::size_t>(dj.at("base_station").as_number());
    d.cpu_hz = dj.at("cpu_hz").as_number();
    d.radio = radio_from_json(dj.at("radio"));
    d.max_resource = dj.at("max_resource").as_number();
    devices.push_back(d);
  }
  std::vector<mec::BaseStation> stations;
  for (const Json& sj : j.at("base_stations").as_array()) {
    mec::BaseStation s;
    s.id = static_cast<std::size_t>(sj.at("id").as_number());
    s.cpu_hz = sj.at("cpu_hz").as_number();
    s.max_resource = sj.at("max_resource").as_number();
    stations.push_back(s);
  }
  return mec::Topology(std::move(devices), std::move(stations),
                       params_from_json(j.at("params")));
}

Json task_to_json(const mec::Task& t) {
  JsonObject o;
  o["user"] = t.id.user;
  o["index"] = t.id.index;
  o["local_bytes"] = t.local_bytes;
  o["external_bytes"] = t.external_bytes;
  o["external_owner"] = t.external_owner;
  o["cycles_per_byte"] = t.cycles_per_byte;
  o["result_kind"] = std::string(
      t.result_kind == mec::ResultSizeKind::kProportional ? "proportional"
                                                          : "constant");
  o["result_ratio"] = t.result_ratio;
  o["result_const_bytes"] = t.result_const_bytes;
  o["resource"] = t.resource;
  o["deadline_s"] = t.deadline_s;
  return Json(std::move(o));
}

mec::Task task_from_json(const Json& j) {
  mec::Task t;
  t.id.user = static_cast<std::size_t>(j.at("user").as_number());
  t.id.index = static_cast<std::size_t>(j.at("index").as_number());
  t.local_bytes = j.at("local_bytes").as_number();
  t.external_bytes = j.at("external_bytes").as_number();
  t.external_owner = static_cast<std::size_t>(j.at("external_owner").as_number());
  t.cycles_per_byte = j.number_or("cycles_per_byte", t.cycles_per_byte);
  if (j.contains("result_kind")) {
    const std::string& kind = j.at("result_kind").as_string();
    if (kind == "proportional") {
      t.result_kind = mec::ResultSizeKind::kProportional;
    } else if (kind == "constant") {
      t.result_kind = mec::ResultSizeKind::kConstant;
    } else {
      throw JsonError("unknown result_kind: " + kind);
    }
  }
  t.result_ratio = j.number_or("result_ratio", t.result_ratio);
  t.result_const_bytes = j.number_or("result_const_bytes", t.result_const_bytes);
  t.resource = j.number_or("resource", t.resource);
  t.deadline_s = j.at("deadline_s").as_number();
  return t;
}

Json scenario_to_json(const workload::Scenario& scenario) {
  JsonObject root;
  root["topology"] = topology_to_json(scenario.topology);
  JsonArray tasks;
  for (const mec::Task& t : scenario.tasks) tasks.push_back(task_to_json(t));
  root["tasks"] = Json(std::move(tasks));
  return Json(std::move(root));
}

workload::Scenario scenario_from_json(const Json& j) {
  std::vector<mec::Task> tasks;
  for (const Json& tj : j.at("tasks").as_array()) {
    tasks.push_back(task_from_json(tj));
  }
  return workload::Scenario{topology_from_json(j.at("topology")),
                            std::move(tasks)};
}

workload::ScenarioConfig config_from_json(const Json& j) {
  workload::ScenarioConfig c;  // defaults for absent keys
  c.num_devices =
      static_cast<std::size_t>(j.number_or("num_devices",
                                           static_cast<double>(c.num_devices)));
  c.num_base_stations = static_cast<std::size_t>(j.number_or(
      "num_base_stations", static_cast<double>(c.num_base_stations)));
  c.num_tasks = static_cast<std::size_t>(
      j.number_or("num_tasks", static_cast<double>(c.num_tasks)));
  c.max_input_kb = j.number_or("max_input_kb", c.max_input_kb);
  c.min_input_fraction = j.number_or("min_input_fraction", c.min_input_fraction);
  c.external_ratio_max = j.number_or("external_ratio_max", c.external_ratio_max);
  c.cross_cluster_prob = j.number_or("cross_cluster_prob", c.cross_cluster_prob);
  c.wifi_prob = j.number_or("wifi_prob", c.wifi_prob);
  c.deadline_slack_min = j.number_or("deadline_slack_min", c.deadline_slack_min);
  c.deadline_slack_max = j.number_or("deadline_slack_max", c.deadline_slack_max);
  c.resource_max_units = j.number_or("resource_max_units", c.resource_max_units);
  c.device_capacity_min = j.number_or("device_capacity_min", c.device_capacity_min);
  c.device_capacity_max = j.number_or("device_capacity_max", c.device_capacity_max);
  c.station_capacity_per_device =
      j.number_or("station_capacity_per_device", c.station_capacity_per_device);
  if (j.contains("result_kind")) {
    const std::string& kind = j.at("result_kind").as_string();
    if (kind == "proportional") {
      c.result_kind = mec::ResultSizeKind::kProportional;
    } else if (kind == "constant") {
      c.result_kind = mec::ResultSizeKind::kConstant;
    } else {
      throw JsonError("unknown result_kind: " + kind);
    }
  }
  c.result_ratio = j.number_or("result_ratio", c.result_ratio);
  c.result_const_kb = j.number_or("result_const_kb", c.result_const_kb);
  c.seed = static_cast<std::uint64_t>(
      j.number_or("seed", static_cast<double>(c.seed)));
  if (j.contains("params")) c.params = params_from_json(j.at("params"));
  return c;
}

Json timed_scenario_to_json(const workload::TimedScenario& scenario) {
  JsonObject root;
  root["topology"] = topology_to_json(scenario.topology);
  JsonArray tasks;
  for (const mec::TimedTask& t : scenario.tasks) {
    Json tj = task_to_json(t.task);
    tj.as_object()["release_s"] = Json(t.release_s);
    tasks.push_back(std::move(tj));
  }
  root["tasks"] = Json(std::move(tasks));
  return Json(std::move(root));
}

workload::TimedScenario timed_scenario_from_json(const Json& j) {
  std::vector<mec::TimedTask> tasks;
  for (const Json& tj : j.at("tasks").as_array()) {
    mec::TimedTask t;
    t.task = task_from_json(tj);
    t.release_s = tj.at("release_s").as_number();
    tasks.push_back(std::move(t));
  }
  return workload::TimedScenario{topology_from_json(j.at("topology")),
                                 std::move(tasks)};
}

Json online_result_to_json(const serve::StreamResult& result) {
  JsonObject o;
  o["total_energy_j"] = result.serve.total_energy_j;
  o["mean_response_s"] = result.mean_response_s;
  o["makespan_s"] = result.serve.makespan_s;
  o["cancelled"] = result.unsatisfied();
  o["epochs"] = result.serve.decide_epochs;
  JsonArray outcomes;
  for (const serve::StreamOutcome& t : result.outcomes) {
    JsonObject tj;
    tj["decision"] = Json(assign::to_string(t.decision));
    if (t.decision != assign::Decision::kCancelled) {
      tj["start_s"] = t.start_s;
      tj["finish_s"] = t.finish_s;
    }
    outcomes.emplace_back(std::move(tj));
  }
  o["outcomes"] = Json(std::move(outcomes));
  return Json(std::move(o));
}

Json assignment_to_json(const assign::Assignment& assignment) {
  JsonArray decisions;
  for (assign::Decision d : assignment.decisions) {
    decisions.emplace_back(assign::to_string(d));
  }
  JsonObject root;
  root["decisions"] = Json(std::move(decisions));
  return Json(std::move(root));
}

assign::Assignment assignment_from_json(const Json& j) {
  assign::Assignment a;
  for (const Json& dj : j.at("decisions").as_array()) {
    const std::string& s = dj.as_string();
    if (s == "local") {
      a.decisions.push_back(assign::Decision::kLocal);
    } else if (s == "edge") {
      a.decisions.push_back(assign::Decision::kEdge);
    } else if (s == "cloud") {
      a.decisions.push_back(assign::Decision::kCloud);
    } else if (s == "cancelled") {
      a.decisions.push_back(assign::Decision::kCancelled);
    } else {
      throw JsonError("unknown decision: " + s);
    }
  }
  return a;
}

Json metrics_to_json(const assign::Metrics& m) {
  JsonObject o;
  o["num_tasks"] = m.num_tasks;
  o["cancelled"] = m.cancelled;
  o["deadline_violations"] = m.deadline_violations;
  o["total_energy_j"] = m.total_energy_j;
  o["mean_latency_s"] = m.mean_latency_s;
  o["max_latency_s"] = m.max_latency_s;
  o["on_local"] = m.on_local;
  o["on_edge"] = m.on_edge;
  o["on_cloud"] = m.on_cloud;
  o["unsatisfied_rate"] = m.unsatisfied_rate();
  return Json(std::move(o));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MECSCHED_REQUIRE(in.good(), "cannot open file for reading: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  MECSCHED_REQUIRE(out.good(), "cannot open file for writing: " + path);
  out << content;
  MECSCHED_REQUIRE(out.good(), "failed writing file: " + path);
}

}  // namespace mecsched::io
