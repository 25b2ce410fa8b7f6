// JSON (de)serialization of mecsched's domain objects.
//
// Round-trippable: topology+tasks saved with `scenario_to_json` and loaded
// with `scenario_from_json` reproduce identical cost computations. Used by
// the CLI to pass scenarios and plans between invocations and to archive
// experiment inputs next to their outputs.
#pragma once

#include <string>

#include "assign/assignment.h"
#include "assign/evaluator.h"
#include "io/json.h"
#include "mec/task.h"
#include "mec/topology.h"
#include "serve/stream.h"
#include "workload/arrivals.h"
#include "workload/scenario.h"

namespace mecsched::io {

// --- topology + tasks ---------------------------------------------------
Json topology_to_json(const mec::Topology& topology);
mec::Topology topology_from_json(const Json& j);

Json task_to_json(const mec::Task& task);
mec::Task task_from_json(const Json& j);

Json scenario_to_json(const workload::Scenario& scenario);
workload::Scenario scenario_from_json(const Json& j);

// --- generator config -----------------------------------------------------
// Missing keys keep their defaults, so configs can be sparse.
workload::ScenarioConfig config_from_json(const Json& j);

// --- timed (online) scenarios ----------------------------------------------
Json timed_scenario_to_json(const workload::TimedScenario& scenario);
workload::TimedScenario timed_scenario_from_json(const Json& j);

// A fault-free stream run (`mecsched online`): `cancelled` is the number
// of unsatisfied tasks, `epochs` the epochs that pulled a non-empty batch;
// start/finish are given for completed tasks.
Json online_result_to_json(const serve::StreamResult& result);

// --- plans and metrics ----------------------------------------------------
Json assignment_to_json(const assign::Assignment& assignment);
assign::Assignment assignment_from_json(const Json& j);

Json metrics_to_json(const assign::Metrics& metrics);

// --- file helpers -----------------------------------------------------------
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& content);

}  // namespace mecsched::io
