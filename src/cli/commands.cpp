#include "cli/commands.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <tuple>
#include <utility>

#include "assign/baselines.h"
#include "assign/best_response.h"
#include "assign/evaluator.h"
#include "assign/exact.h"
#include "assign/hgos.h"
#include "assign/hta_instance.h"
#include "assign/lp_hta.h"
#include "assign/portfolio.h"
#include "assign/recovery.h"
#include "assign/sensitivity.h"
#include "audit/audit.h"
#include "cli/args.h"
#include "cli/sweep_grids.h"
#include "common/deadline.h"
#include "common/error.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/table.h"
#include "control/fallback.h"
#include "dta/pipeline.h"
#include "exec/hash.h"
#include "exec/sweep_runner.h"
#include "exec/thread_pool.h"
#include "io/codec.h"
#include "mec/cost_breakdown.h"
#include "io/shared_codec.h"
#include "io/trace_codec.h"
#include "metrics/series.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "io/serve_codec.h"
#include "serve/daemon.h"
#include "serve/decision_log.h"
#include "serve/signal_stop.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "sim/solver_chaos.h"
#include "workload/arrivals.h"
#include "workload/faults.h"
#include "workload/scenario.h"
#include "workload/serve_trace.h"
#include "workload/shared_data.h"

namespace mecsched::cli {
namespace {

std::unique_ptr<assign::Assigner> make_assigner(const std::string& name) {
  if (name == "lp-hta") return std::make_unique<assign::LpHta>();
  if (name == "lp-hta-ipm") {
    return std::make_unique<assign::LpHta>(
        assign::LpHtaOptions{assign::LpEngine::kInteriorPoint});
  }
  if (name == "hgos") return std::make_unique<assign::Hgos>();
  if (name == "alltoc") return std::make_unique<assign::AllToCloud>();
  if (name == "alloffload") return std::make_unique<assign::AllOffload>();
  if (name == "local-first") return std::make_unique<assign::LocalFirst>();
  if (name == "random") return std::make_unique<assign::RandomAssign>();
  if (name == "exact") return std::make_unique<assign::ExactHta>();
  if (name == "brd") return std::make_unique<assign::BestResponse>();
  if (name == "portfolio") {
    return std::make_unique<assign::Portfolio>(assign::Portfolio::standard());
  }
  throw ModelError("unknown algorithm: " + name +
                   " (try lp-hta, lp-hta-ipm, hgos, alltoc, alloffload, "
                   "local-first, random, exact, brd, portfolio)");
}

workload::Scenario load_scenario(const ArgParser& args) {
  const std::string path = args.get("scenario", "");
  MECSCHED_REQUIRE(!path.empty(), "--scenario <file> is required");
  return io::scenario_from_json(io::Json::parse(io::read_file(path)));
}

assign::Assignment load_plan(const ArgParser& args) {
  const std::string path = args.get("plan", "");
  MECSCHED_REQUIRE(!path.empty(), "--plan <file> is required");
  return io::assignment_from_json(io::Json::parse(io::read_file(path)));
}

void emit(const io::Json& j, const ArgParser& args, std::ostream& out) {
  const std::string path = args.get("out", "");
  if (path.empty()) {
    out << j.dump(2) << '\n';
  } else {
    io::write_file(path, j.dump(2) + "\n");
    out << "wrote " << path << '\n';
  }
}

// Global flags, accepted by every command. They are stripped from the
// token stream before the per-command ArgParsers (which reject unknown
// flags) run.
struct GlobalFlags {
  // --trace, --metrics-out and --flight-out <file>; --obs-summary.
  obs::OutputFiles outputs;
  bool has_jobs = false;     // --jobs <n>: sweep/pool worker count
  std::size_t jobs = 0;
  bool has_audit = false;    // --audit off|cheap|full: certificate checks
  audit::Level audit_level = audit::Level::kOff;
  double budget_ms = 0.0;    // --budget-ms: per-solve deadline (0 = off)

  bool obs_active() const {
    return outputs.summary || !outputs.trace.empty() ||
           !outputs.metrics.empty();
  }
};

GlobalFlags strip_global_flags(std::vector<std::string>& tokens) {
  GlobalFlags flags;
  std::vector<std::string> kept;
  kept.reserve(tokens.size());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] == "--trace" || tokens[i] == "--metrics-out" ||
        tokens[i] == "--flight-out") {
      MECSCHED_REQUIRE(i + 1 < tokens.size(),
                       tokens[i] + " requires a file argument");
      (tokens[i] == "--trace"         ? flags.outputs.trace
       : tokens[i] == "--metrics-out" ? flags.outputs.metrics
                                      : flags.outputs.flight) = tokens[i + 1];
      ++i;
    } else if (tokens[i] == "--jobs") {
      MECSCHED_REQUIRE(i + 1 < tokens.size(), "--jobs requires a count");
      flags.has_jobs = true;
      flags.jobs = parse_positive_count("--jobs", tokens[i + 1]);
      ++i;
    } else if (tokens[i] == "--budget-ms") {
      MECSCHED_REQUIRE(i + 1 < tokens.size(),
                       "--budget-ms requires a value in milliseconds");
      const std::string& text = tokens[i + 1];
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      MECSCHED_REQUIRE(end != nullptr && end != text.c_str() && *end == '\0' &&
                           std::isfinite(v) && v > 0.0,
                       "--budget-ms wants a positive number of milliseconds, "
                       "got '" + text + "'");
      flags.budget_ms = v;
      ++i;
    } else if (tokens[i] == "--audit") {
      MECSCHED_REQUIRE(i + 1 < tokens.size(),
                       "--audit requires a level (off, cheap or full)");
      flags.has_audit = true;
      flags.audit_level = audit::parse_level(tokens[i + 1]);
      ++i;
    } else if (tokens[i] == "--obs-summary") {
      flags.outputs.summary = true;
    } else {
      kept.push_back(tokens[i]);
    }
  }
  tokens = std::move(kept);
  return flags;
}

int dispatch(const std::string& command, const std::vector<std::string>& rest,
             std::ostream& out, std::ostream& err) {
  if (command == "generate") return cmd_generate(rest, out);
  if (command == "assign") return cmd_assign(rest, out);
  if (command == "evaluate") return cmd_evaluate(rest, out);
  if (command == "simulate") return cmd_simulate(rest, out);
  if (command == "compare") return cmd_compare(rest, out);
  if (command == "generate-shared") return cmd_generate_shared(rest, out);
  if (command == "sensitivity") return cmd_sensitivity(rest, out);
  if (command == "breakdown") return cmd_breakdown(rest, out);
  if (command == "recover") return cmd_recover(rest, out);
  if (command == "generate-arrivals") return cmd_generate_arrivals(rest, out);
  if (command == "online") return cmd_online(rest, out);
  if (command == "trace") return cmd_trace(rest, out);
  if (command == "dta") return cmd_dta(rest, out);
  if (command == "churn") return cmd_churn(rest, out);
  if (command == "sweep") return cmd_sweep(rest, out);
  if (command == "chaos") return cmd_chaos(rest, out);
  if (command == "generate-serve") return cmd_generate_serve(rest, out);
  if (command == "serve") return cmd_serve(rest, out);
  if (command == "report") return cmd_report(rest, out);
  err << "unknown command: " << command << "\n\n" << usage();
  return 1;
}

}  // namespace

std::string usage() {
  return
      "usage: mecsched <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate  --tasks N --devices N --stations N --seed S\n"
      "            [--max-input-kb X] [--config cfg.json] [--out scenario.json]\n"
      "  assign    --scenario s.json [--algorithm lp-hta] [--out plan.json]\n"
      "  evaluate  --scenario s.json --plan p.json [--out metrics.json]\n"
      "  simulate  --scenario s.json --plan p.json [--contention]\n"
      "  compare   --scenario s.json\n"
      "  sensitivity --scenario s.json   (capacity shadow prices)\n"
      "  trace     --scenario s.json --plan p.json [--contention]\n"
      "  breakdown --scenario s.json --task T [--placement local|edge|cloud]\n"
      "  recover   --scenario s.json --plan p.json --device D [--out p2.json]\n"
      "  generate-arrivals --tasks N --rate R [--out timed.json]\n"
      "  online    --scenario timed.json [--epoch-s E] [--out result.json]\n"
      "  churn     --tasks N --devices N --stations N --seed S [--rate R]\n"
      "            [--horizon H] [--mtbf S] [--mttr S] [--outage-rate R]\n"
      "            [--outage-duration S] [--correlated-prob P] [--fade-rate R]\n"
      "            [--epoch-s E] [--max-attempts K] [--out result.json]\n"
      "  generate-shared --tasks N --devices N --stations N --items N\n"
      "            --seed S [--out shared.json]\n"
      "  dta       --scenario shared.json [--strategy workload|workload-bytes"
      "|number]\n"
      "            [--scheduler lp-hta|greedy] [--out result.json]\n"
      "  sweep     [--grid fig2a|fig2b|fig3|fig4a|fig4b|smoke] [--reps N]\n"
      "            [--csv] [--out series.csv] [--list]\n"
      "  chaos     [--cells N] [--tasks N] [--devices N] [--stations N]\n"
      "            [--seed S] [--stall-prob P] [--nan-prob P]\n"
      "            [--cancel-prob P] [--error-prob P] [--csv]\n"
      "            (solver fault injection drill; see docs/robustness.md)\n"
      "  generate-serve --devices N --stations N --seed S [--epochs N]\n"
      "            [--epoch-s E] [--rate R] [--join-rate R] [--leave-rate R]\n"
      "            [--migrate-rate R] [--max-input-kb X] [--out workload.json]\n"
      "  serve     [--replay workload.json | generator knobs as above]\n"
      "            [--epoch-s E] [--batch-max N] [--max-queue N]\n"
      "            [--max-attempts K] [--epoch-budget-ms MS]\n"
      "            [--decisions-out log.csv] [--out result.json]\n"
      "            (online scheduling daemon; see docs/serve.md)\n"
      "  report    --flight records.jsonl [--top N]\n"
      "            (render a flight-record post-mortem; see\n"
      "            docs/observability.md)\n"
      "  report    --diff A.csv B.csv\n"
      "            (compare two serve decision logs on their shared\n"
      "            columns; exit 1 unless they match in order)\n"
      "\n"
      "global flags (any command):\n"
      "  --trace out.json      write a Chrome trace_event file of the run\n"
      "                        (open in chrome://tracing or ui.perfetto.dev)\n"
      "  --metrics-out out.prom  write solver/controller metrics in the\n"
      "                        Prometheus text format\n"
      "  --obs-summary         print a metric summary table after the run\n"
      "  --jobs N              worker threads for parallel sweeps (default:\n"
      "                        MECSCHED_JOBS env, else all hardware threads);\n"
      "                        sweep output is identical for every N\n"
      "  --audit LEVEL         runtime solver certificates: off, cheap or\n"
      "                        full (default: MECSCHED_AUDIT env, else the\n"
      "                        build default; see docs/static-analysis.md)\n"
      "  --budget-ms MS        wall-clock budget per solve: LP/ILP engines\n"
      "                        degrade to their best anytime answer at the\n"
      "                        deadline instead of running long (see\n"
      "                        docs/robustness.md)\n"
      "  --flight-out f.jsonl  record one structured line per solve (engine,\n"
      "                        status, timing, deadline residual, fallback\n"
      "                        rung, chaos hits); written even when the\n"
      "                        command fails — feed it to mecsched report\n"
      "\n"
      "algorithms: lp-hta lp-hta-ipm hgos alltoc alloffload local-first "
      "random exact brd portfolio\n";
}

int cmd_generate(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"tasks", "devices", "stations", "seed", "max-input-kb",
                  "config", "out"},
                 {});
  args.parse(tokens);

  workload::ScenarioConfig cfg;
  if (args.has("config")) {
    cfg = io::config_from_json(
        io::Json::parse(io::read_file(args.get("config", ""))));
  }
  cfg.num_tasks = args.get_count("tasks", cfg.num_tasks);
  cfg.num_devices = args.get_count("devices", cfg.num_devices);
  cfg.num_base_stations = args.get_count("stations", cfg.num_base_stations);
  cfg.seed = args.get_count("seed", static_cast<std::size_t>(cfg.seed));
  cfg.max_input_kb = args.get_num("max-input-kb", cfg.max_input_kb);

  const workload::Scenario scenario = workload::make_scenario(cfg);
  emit(io::scenario_to_json(scenario), args, out);
  return 0;
}

int cmd_assign(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "algorithm", "out"}, {});
  args.parse(tokens);

  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const auto algorithm = make_assigner(args.get("algorithm", "lp-hta"));
  const assign::Assignment plan = algorithm->assign(instance);
  emit(io::assignment_to_json(plan), args, out);
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "plan", "out"}, {});
  args.parse(tokens);

  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::Assignment plan = load_plan(args);
  MECSCHED_REQUIRE(plan.size() == instance.num_tasks(),
                   "plan size does not match scenario");

  io::Json j = io::metrics_to_json(assign::evaluate(instance, plan));
  const assign::FeasibilityReport feas =
      assign::check_feasibility(instance, plan);
  j.as_object()["feasible"] = io::Json(feas.ok);
  io::JsonArray problems;
  for (const std::string& p : feas.problems) problems.emplace_back(p);
  j.as_object()["problems"] = io::Json(std::move(problems));
  emit(j, args, out);
  return feas.ok ? 0 : 2;
}

int cmd_simulate(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "plan", "out"}, {"contention"});
  args.parse(tokens);

  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::Assignment plan = load_plan(args);
  MECSCHED_REQUIRE(plan.size() == instance.num_tasks(),
                   "plan size does not match scenario");

  sim::SimOptions sim_opts;
  sim_opts.model_contention = args.get_switch("contention");
  const sim::SimResult r = sim::simulate(instance, plan, sim_opts);
  io::JsonObject o;
  o["makespan_s"] = r.makespan_s;
  o["total_energy_j"] = r.total_energy_j;
  o["events"] = r.events_processed;
  io::JsonArray tasks;
  for (const sim::TaskTimeline& tl : r.timelines) {
    io::JsonObject t;
    t["task"] = tl.task;
    t["placed"] = io::Json(tl.placed);
    if (tl.placed) {
      t["latency_s"] = tl.latency_s();
      t["energy_j"] = tl.energy_j;
    }
    tasks.emplace_back(std::move(t));
  }
  o["tasks"] = io::Json(std::move(tasks));
  emit(io::Json(std::move(o)), args, out);
  return 0;
}

int cmd_compare(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario"}, {});
  args.parse(tokens);

  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);

  Table table({"algorithm", "energy (J)", "mean latency (s)",
               "unsatisfied", "feasible"});
  for (const char* name :
       {"lp-hta", "hgos", "alltoc", "alloffload", "local-first"}) {
    const auto algorithm = make_assigner(name);
    const assign::Assignment plan = algorithm->assign(instance);
    const assign::Metrics m = assign::evaluate(instance, plan);
    const bool ok = assign::check_feasibility(instance, plan).ok;
    table.add_row({algorithm->name(), Table::num(m.total_energy_j, 1),
                   Table::num(m.mean_latency_s, 3),
                   Table::num(m.unsatisfied_rate(), 3), ok ? "yes" : "no"});
  }
  out << table;
  return 0;
}

int cmd_breakdown(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "task", "placement", "out"}, {});
  args.parse(tokens);
  const workload::Scenario scenario = load_scenario(args);
  const std::size_t t = args.get_count("task", 0);
  MECSCHED_REQUIRE(t < scenario.tasks.size(), "--task index out of range");

  const std::string where = args.get("placement", "");
  std::vector<mec::Placement> placements;
  if (where.empty()) {
    placements.assign(mec::kAllPlacements.begin(), mec::kAllPlacements.end());
  } else if (where == "local") {
    placements = {mec::Placement::kLocal};
  } else if (where == "edge") {
    placements = {mec::Placement::kEdge};
  } else if (where == "cloud") {
    placements = {mec::Placement::kCloud};
  } else {
    throw ModelError("unknown placement: " + where);
  }

  io::JsonObject root;
  for (mec::Placement p : placements) {
    const mec::CostBreakdown b =
        mec::explain(scenario.topology, scenario.tasks[t], p);
    io::JsonArray legs;
    for (const mec::CostLeg& leg : b.legs) {
      io::JsonObject lj;
      lj["label"] = io::Json(leg.label);
      lj["time_s"] = leg.time_s;
      lj["energy_j"] = leg.energy_j;
      lj["parallel"] = io::Json(leg.parallel);
      legs.emplace_back(std::move(lj));
    }
    io::JsonObject pj;
    pj["legs"] = io::Json(std::move(legs));
    pj["total_time_s"] = b.total_time();
    pj["total_energy_j"] = b.total_energy();
    root[mec::to_string(p)] = io::Json(std::move(pj));
  }
  emit(io::Json(std::move(root)), args, out);
  return 0;
}

int cmd_recover(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "plan", "device", "out"}, {});
  args.parse(tokens);
  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::Assignment plan = load_plan(args);
  MECSCHED_REQUIRE(plan.size() == instance.num_tasks(),
                   "plan size does not match scenario");
  const std::size_t device = args.get_count("device", 0);
  const assign::RecoveryResult r =
      assign::replan_after_device_failure(instance, plan, device);
  io::Json j = io::assignment_to_json(r.assignment);
  j.as_object()["lost_issued"] = io::Json(r.lost_issued);
  j.as_object()["lost_data"] = io::Json(r.lost_data);
  emit(j, args, out);
  return 0;
}

int cmd_generate_arrivals(const std::vector<std::string>& tokens,
                          std::ostream& out) {
  ArgParser args({"tasks", "devices", "stations", "seed", "rate", "out"}, {});
  args.parse(tokens);
  workload::ArrivalConfig cfg;
  cfg.scenario.num_tasks = args.get_count("tasks", cfg.scenario.num_tasks);
  cfg.scenario.num_devices =
      args.get_count("devices", cfg.scenario.num_devices);
  cfg.scenario.num_base_stations =
      args.get_count("stations", cfg.scenario.num_base_stations);
  cfg.scenario.seed =
      args.get_count("seed", static_cast<std::size_t>(cfg.scenario.seed));
  cfg.arrival_rate_per_s = args.get_num("rate", cfg.arrival_rate_per_s);
  emit(io::timed_scenario_to_json(workload::make_timed_scenario(cfg)), args,
       out);
  return 0;
}

int cmd_online(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "epoch-s", "out"}, {});
  args.parse(tokens);
  const std::string path = args.get("scenario", "");
  MECSCHED_REQUIRE(!path.empty(), "--scenario <file> is required");
  const workload::TimedScenario scenario =
      io::timed_scenario_from_json(io::Json::parse(io::read_file(path)));
  // Plain online scheduling: no faults, one admission per task.
  serve::ServeOptions opts;
  opts.batching.window_s = args.get_num("epoch-s", opts.batching.window_s);
  opts.readmission.max_attempts = 1;
  const serve::StreamResult r =
      serve::run_stream(opts, scenario.topology, scenario.tasks);
  emit(io::online_result_to_json(r), args, out);
  return 0;
}

int cmd_sensitivity(const std::vector<std::string>& tokens,
                    std::ostream& out) {
  ArgParser args({"scenario", "out"}, {});
  args.parse(tokens);
  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::ShadowPrices sp = assign::capacity_shadow_prices(instance);

  io::JsonArray devices, stations;
  for (double v : sp.device) devices.emplace_back(v);
  for (double v : sp.station) stations.emplace_back(v);
  io::JsonObject o;
  o["device_shadow_price_j_per_unit"] = io::Json(std::move(devices));
  o["station_shadow_price_j_per_unit"] = io::Json(std::move(stations));
  emit(io::Json(std::move(o)), args, out);
  return 0;
}

int cmd_trace(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "plan", "out"}, {"contention"});
  args.parse(tokens);
  const workload::Scenario scenario = load_scenario(args);
  const assign::HtaInstance instance(scenario.topology, scenario.tasks);
  const assign::Assignment plan = load_plan(args);
  MECSCHED_REQUIRE(plan.size() == instance.num_tasks(),
                   "plan size does not match scenario");
  sim::SimOptions sim_opts;
  sim_opts.model_contention = args.get_switch("contention");
  const sim::SimResult r = sim::simulate(instance, plan, sim_opts);
  emit(io::sim_result_to_json(r), args, out);
  return 0;
}

int cmd_generate_shared(const std::vector<std::string>& tokens,
                        std::ostream& out) {
  ArgParser args({"tasks", "devices", "stations", "items", "seed",
                  "max-input-kb", "out"},
                 {});
  args.parse(tokens);

  workload::SharedDataConfig cfg;
  cfg.num_tasks = args.get_count("tasks", cfg.num_tasks);
  cfg.num_devices = args.get_count("devices", cfg.num_devices);
  cfg.num_base_stations = args.get_count("stations", cfg.num_base_stations);
  cfg.num_items = args.get_count("items", cfg.num_items);
  cfg.seed = args.get_count("seed", static_cast<std::size_t>(cfg.seed));
  cfg.max_input_kb = args.get_num("max-input-kb", cfg.max_input_kb);

  const dta::SharedDataScenario scenario = workload::make_shared_scenario(cfg);
  emit(io::shared_scenario_to_json(scenario), args, out);
  return 0;
}

int cmd_dta(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"scenario", "strategy", "scheduler", "out"}, {});
  args.parse(tokens);

  const std::string path = args.get("scenario", "");
  MECSCHED_REQUIRE(!path.empty(), "--scenario <file> is required");
  const dta::SharedDataScenario scenario =
      io::shared_scenario_from_json(io::Json::parse(io::read_file(path)));

  dta::DtaOptions opts;
  const std::string strategy = args.get("strategy", "workload");
  if (strategy == "workload") {
    opts.strategy = dta::DtaStrategy::kWorkload;
  } else if (strategy == "workload-bytes") {
    opts.strategy = dta::DtaStrategy::kWorkloadBytes;
  } else if (strategy == "number") {
    opts.strategy = dta::DtaStrategy::kNumber;
  } else {
    throw ModelError("unknown strategy: " + strategy +
                     " (try workload, workload-bytes, number)");
  }
  const std::string scheduler = args.get("scheduler", "lp-hta");
  if (scheduler == "lp-hta") {
    opts.scheduler = dta::PartialScheduler::kLpHta;
  } else if (scheduler == "greedy") {
    opts.scheduler = dta::PartialScheduler::kLocalGreedy;
  } else {
    throw ModelError("unknown scheduler: " + scheduler +
                     " (try lp-hta, greedy)");
  }

  const dta::DtaResult result = dta::run_dta(scenario, opts);
  io::Json j = io::dta_result_to_json(result);
  j.as_object()["strategy"] = io::Json(dta::to_string(opts.strategy));
  emit(j, args, out);
  return 0;
}

int cmd_churn(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"tasks", "devices", "stations", "seed", "rate", "horizon",
                  "mtbf", "mttr", "outage-rate", "outage-duration",
                  "correlated-prob", "fade-rate", "epoch-s", "max-attempts",
                  "out"},
                 {});
  args.parse(tokens);

  workload::ArrivalConfig arrivals;
  arrivals.scenario.num_tasks =
      args.get_count("tasks", arrivals.scenario.num_tasks);
  arrivals.scenario.num_devices =
      args.get_count("devices", arrivals.scenario.num_devices);
  arrivals.scenario.num_base_stations =
      args.get_count("stations", arrivals.scenario.num_base_stations);
  arrivals.scenario.seed = args.get_count(
      "seed", static_cast<std::size_t>(arrivals.scenario.seed));
  arrivals.arrival_rate_per_s =
      args.get_num("rate", arrivals.arrival_rate_per_s);
  const workload::TimedScenario scenario =
      workload::make_timed_scenario(arrivals);

  workload::FaultModelConfig faults_cfg;
  faults_cfg.seed = arrivals.scenario.seed + 1;  // independent stream
  faults_cfg.horizon_s = args.get_num("horizon", faults_cfg.horizon_s);
  faults_cfg.device_mtbf_s = args.get_num("mtbf", 20.0);
  faults_cfg.device_mttr_s = args.get_num("mttr", faults_cfg.device_mttr_s);
  faults_cfg.station_outage_rate_per_s =
      args.get_num("outage-rate", faults_cfg.station_outage_rate_per_s);
  faults_cfg.station_outage_duration_s =
      args.get_num("outage-duration", faults_cfg.station_outage_duration_s);
  faults_cfg.correlated_device_prob =
      args.get_num("correlated-prob", faults_cfg.correlated_device_prob);
  faults_cfg.link_fade_rate_per_s =
      args.get_num("fade-rate", faults_cfg.link_fade_rate_per_s);
  const sim::FaultSchedule faults =
      workload::make_fault_schedule(faults_cfg, scenario.topology);

  serve::ServeOptions opts;
  opts.batching.window_s = args.get_num("epoch-s", opts.batching.window_s);
  opts.readmission.max_attempts =
      args.get_count("max-attempts", opts.readmission.max_attempts);
  const serve::StreamResult r =
      serve::run_stream(opts, scenario.topology, scenario.tasks, faults);

  io::JsonObject o;
  o["tasks"] = scenario.tasks.size();
  o["fault_events"] = faults.size();
  o["device_failures"] = faults.device_failures();
  o["station_failures"] = faults.station_failures();
  o["completed"] = r.serve.completed;
  o["unsatisfied"] = r.unsatisfied();
  o["unsatisfied_rate"] = r.unsatisfied_rate();
  o["retries"] = r.serve.retries;
  o["orphaned"] = r.serve.orphaned;
  o["rescued_by_dta"] = r.serve.rescued;
  o["epochs"] = r.serve.decide_epochs;
  o["total_energy_j"] = r.serve.total_energy_j;
  o["makespan_s"] = r.serve.makespan_s;
  io::JsonObject rungs;
  for (std::size_t i = 0; i < control::kNumRungs; ++i) {
    const auto rung = static_cast<control::FallbackRung>(i);
    rungs[control::to_string(rung)] = r.serve.rungs.at(rung);
  }
  o["fallback_rungs"] = io::Json(std::move(rungs));
  emit(io::Json(std::move(o)), args, out);
  return 0;
}

int cmd_sweep(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"grid", "reps", "out"}, {"csv", "list"});
  args.parse(tokens);

  if (args.get_switch("list")) {
    Table t({"grid", "x-axis", "cells", "description"});
    for (const SweepGrid& g : sweep_grids()) {
      t.add_row({g.name, g.x_label, std::to_string(g.xs.size()),
                 g.description});
    }
    out << t;
    return 0;
  }

  const SweepGrid& grid = find_sweep_grid(args.get("grid", "smoke"));
  const std::size_t reps = args.get_count("reps", 3);
  MECSCHED_REQUIRE(reps > 0, "--reps must be positive");

  const metrics::SeriesCollector series = run_sweep_grid(grid, reps);

  const std::string out_path = args.get("out", "");
  if (!out_path.empty()) {
    series.write_csv(out_path);
    out << "wrote " << out_path << '\n';
  } else if (args.get_switch("csv")) {
    // Bare CSV on stdout: exactly the cell means, byte-identical at every
    // --jobs count (asserted in commands_test.cpp and CI).
    series.write_csv(out);
  } else {
    out << grid.metric_label << " (" << grid.name << ", jobs="
        << exec::ThreadPool::default_jobs() << "):\n"
        << series.to_table(3);
  }
  return 0;
}

int cmd_chaos(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"cells", "tasks", "devices", "stations", "seed",
                  "stall-prob", "nan-prob", "cancel-prob", "error-prob"},
                 {"csv"});
  args.parse(tokens);

  const std::size_t cells = args.get_count("cells", 8);
  MECSCHED_REQUIRE(cells > 0, "--cells must be positive");
  sim::SolverChaosConfig cfg;
  cfg.seed = args.get_count("seed", 1);
  cfg.stall_prob = args.get_probability("stall-prob", 0.02);
  cfg.nan_prob = args.get_probability("nan-prob", 0.02);
  cfg.cancel_prob = args.get_probability("cancel-prob", 0.02);
  cfg.error_prob = args.get_probability("error-prob", 0.02);

  workload::ScenarioConfig base;
  base.num_tasks = args.get_count("tasks", 24);
  base.num_devices = args.get_count("devices", 8);
  base.num_base_stations = args.get_count("stations", 2);

  // The drill: every cell runs the full fallback chain while the armed hook
  // injects solver faults from the seeded matrix. The per-cell table and
  // the aggregated trace below must be byte-identical at any --jobs level
  // (the CI chaos job diffs --jobs 1 against --jobs 4).
  sim::SolverChaos chaos(cfg);
  const sim::ChaosArmed armed(chaos);
  const control::FallbackChain chain;

  struct CellOutcome {
    std::size_t rung;
    std::uint64_t digest;
    double energy_j;
  };
  const std::vector<CellOutcome> results =
      exec::SweepRunner().run<CellOutcome>(cells, [&](std::size_t i) {
        workload::ScenarioConfig cell_cfg = base;
        cell_cfg.seed = Rng(cfg.seed).substream_seed(i);
        const workload::Scenario scenario = workload::make_scenario(cell_cfg);
        const assign::HtaInstance instance(scenario.topology, scenario.tasks);
        control::FallbackRung rung = control::FallbackRung::kLpHta;
        const assign::Assignment plan =
            chain.assign(instance, rung, CancellationToken());
        std::uint64_t digest = assign::fingerprint(instance);
        for (const assign::Decision d : plan.decisions) {
          digest = exec::mix(digest, static_cast<std::uint64_t>(d) + 1);
        }
        return CellOutcome{static_cast<std::size_t>(rung), digest,
                           assign::evaluate(instance, plan).total_energy_j};
      });

  const std::vector<sim::SolverFaultRecord> trace = chaos.trace();
  if (args.get_switch("csv")) {
    out << "cell,rung,digest,energy_j\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << i << ','
          << control::to_string(
                 static_cast<control::FallbackRung>(results[i].rung))
          << ',' << results[i].digest << ','
          << Table::num(results[i].energy_j, 3) << '\n';
    }
    out << "engine,rows,cols,iteration,kind,count\n";
    for (const sim::SolverFaultRecord& r : trace) {
      out << r.engine << ',' << r.rows << ',' << r.cols << ',' << r.iteration
          << ',' << sim::to_string(r.kind) << ',' << r.count << '\n';
    }
    return 0;
  }

  Table cells_table({"cell", "rung", "digest", "energy (J)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    cells_table.add_row(
        {std::to_string(i),
         control::to_string(static_cast<control::FallbackRung>(results[i].rung)),
         std::to_string(results[i].digest),
         Table::num(results[i].energy_j, 3)});
  }
  out << cells_table;
  out << "injected faults: " << chaos.injected() << '\n';
  if (!trace.empty()) {
    Table fault_table({"engine", "rows", "cols", "iteration", "kind", "count"});
    for (const sim::SolverFaultRecord& r : trace) {
      fault_table.add_row({r.engine, std::to_string(r.rows),
                           std::to_string(r.cols), std::to_string(r.iteration),
                           sim::to_string(r.kind), std::to_string(r.count)});
    }
    out << fault_table;
  }
  return 0;
}

namespace {

// Shared by generate-serve and serve's generator path, so a workload
// generated inline and one replayed from the emitted JSON are identical.
workload::ServeTraceConfig serve_trace_config_from_args(const ArgParser& args) {
  workload::ServeTraceConfig cfg;
  cfg.scenario.num_devices =
      args.get_count("devices", cfg.scenario.num_devices);
  cfg.scenario.num_base_stations =
      args.get_count("stations", cfg.scenario.num_base_stations);
  cfg.scenario.seed =
      args.get_count("seed", static_cast<std::size_t>(cfg.scenario.seed));
  cfg.scenario.max_input_kb =
      args.get_positive_num("max-input-kb", cfg.scenario.max_input_kb);
  cfg.epochs = args.get_count("epochs", cfg.epochs);
  cfg.epoch_s = args.get_positive_num("epoch-s", cfg.epoch_s);
  cfg.arrival_rate_per_s =
      args.get_positive_num("rate", cfg.arrival_rate_per_s);
  // Churn rates may be zero (off); get_num still rejects NaN/garbage and
  // the generator rejects negatives.
  cfg.join_rate_per_s = args.get_num("join-rate", cfg.join_rate_per_s);
  cfg.leave_rate_per_s = args.get_num("leave-rate", cfg.leave_rate_per_s);
  cfg.migrate_rate_per_s =
      args.get_num("migrate-rate", cfg.migrate_rate_per_s);
  return cfg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

int cmd_generate_serve(const std::vector<std::string>& tokens,
                       std::ostream& out) {
  ArgParser args({"devices", "stations", "seed", "epochs", "epoch-s", "rate",
                  "join-rate", "leave-rate", "migrate-rate", "max-input-kb",
                  "out"},
                 {});
  args.parse(tokens);
  const workload::ServeWorkload workload =
      workload::make_serve_workload(serve_trace_config_from_args(args));
  emit(io::serve_workload_to_json(workload), args, out);
  return 0;
}

int cmd_serve(const std::vector<std::string>& tokens, std::ostream& out) {
  ArgParser args({"replay", "devices", "stations", "seed", "epochs", "rate",
                  "join-rate", "leave-rate", "migrate-rate", "max-input-kb",
                  "epoch-s", "batch-max", "max-queue",
                  "max-attempts", "epoch-budget-ms", "decisions-out", "out"},
                 {});
  args.parse(tokens);

  // --epoch-s is both the batching window and (generator path) the trace's
  // epoch length, so one trace epoch is one decision epoch by default.
  const double epoch_s = args.get_positive_num("epoch-s", 0.5);

  const std::string replay = args.get("replay", "");
  const workload::ServeWorkload workload = [&] {
    if (!replay.empty()) {
      return io::serve_workload_from_json(
          io::Json::parse(io::read_file(replay)));
    }
    workload::ServeTraceConfig cfg = serve_trace_config_from_args(args);
    cfg.epoch_s = epoch_s;
    return workload::make_serve_workload(cfg);
  }();

  serve::ServeOptions opts;
  opts.batching.window_s = epoch_s;
  opts.batching.max_batch =
      args.get_count("batch-max", opts.batching.max_batch);
  opts.readmission.max_queue =
      args.get_count("max-queue", opts.readmission.max_queue);
  opts.readmission.max_attempts =
      args.get_count("max-attempts", opts.readmission.max_attempts);
  // 0 (the default) disables the budget; get_positive_num validates the
  // fallback too, so only consult it when the flag is present.
  if (args.has("epoch-budget-ms")) {
    opts.epoch_budget_ms = args.get_positive_num("epoch-budget-ms", 0.0);
  }

  serve::DecisionLog log;
  // Ctrl-C / SIGTERM stop the loop at the next epoch boundary; the normal
  // return path then runs, so --flight-out / --metrics-out / --trace still
  // capture the interrupted run.
  serve::ScopedSignalStop stop;
  const serve::ServeResult r = serve::ServeDaemon(opts).run(
      workload.universe, workload.trace, &log, stop.token());

  const std::string decisions_path = args.get("decisions-out", "");
  if (!decisions_path.empty()) {
    std::ostringstream csv;
    log.write_csv(csv);
    io::write_file(decisions_path, csv.str());
    out << "wrote " << decisions_path << '\n';
  }

  io::JsonObject o;
  o["events"] = r.events;
  o["arrivals"] = r.arrivals;
  o["admitted"] = r.admitted;
  o["rejected"] = r.rejected;
  o["decisions"] = r.decisions;
  o["completed"] = r.completed;
  o["expired"] = r.expired;
  o["lost_issuer"] = r.lost_issuer;
  o["exhausted"] = r.exhausted;
  o["orphaned"] = r.orphaned;
  o["retries"] = r.retries;
  o["abandoned"] = r.abandoned;
  o["epochs"] = r.epochs;
  o["decide_epochs"] = r.decide_epochs;
  o["total_energy_j"] = r.total_energy_j;
  o["makespan_s"] = r.makespan_s;
  o["virtual_now_s"] = r.virtual_now_s;
  o["stopped_early"] = io::Json(r.stopped_early);
  o["decision_digest"] = hex64(log.digest());
  io::JsonObject rungs;
  for (std::size_t i = 0; i < control::kNumRungs; ++i) {
    const auto rung = static_cast<control::FallbackRung>(i);
    rungs[control::to_string(rung)] = r.rungs.at(rung);
  }
  o["fallback_rungs"] = io::Json(std::move(rungs));
  emit(io::Json(std::move(o)), args, out);
  return 0;
}

namespace {

// The rows of a decision-log CSV, header first, split on ','; the log
// quotes no field (decision_log.cpp).
std::vector<std::vector<std::string>> read_csv_rows(const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(io::read_file(path));
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<std::string>& row = rows.emplace_back();
    std::istringstream fields(line + ',');
    for (std::string f; std::getline(fields, f, ',');) row.push_back(f);
    MECSCHED_REQUIRE(row.size() == rows.front().size(),
                     path + ": line " + std::to_string(rows.size()) +
                         " has another field count than the header");
  }
  MECSCHED_REQUIRE(!rows.empty(), path + ": no CSV header");
  return rows;
}

// `report --diff A B`: two decision logs compared on the columns both
// headers name, in A's order, so a column only one of them has (an older
// log's `shard`) does not count. Exits 1 unless they match in order.
int report_diff(const std::string& path_a, const std::string& path_b,
                std::ostream& out) {
  const auto a = read_csv_rows(path_a);
  const auto b = read_csv_rows(path_b);
  std::vector<std::pair<std::size_t, std::size_t>> cols;  // (in A, in B)
  for (std::size_t i = 0; i < a[0].size(); ++i) {
    const auto it = std::find(b[0].begin(), b[0].end(), a[0][i]);
    if (it != b[0].end()) cols.emplace_back(i, it - b[0].begin());
  }
  MECSCHED_REQUIRE(!cols.empty(), "the two logs share no column");
  // Each log's lines on the shared columns, header first.
  const auto project = [&](const auto& rows, bool in_b) {
    std::vector<std::string> lines;
    for (const std::vector<std::string>& row : rows) {
      std::string& line = lines.emplace_back();
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (k > 0) line += ',';
        line += row[in_b ? cols[k].second : cols[k].first];
      }
    }
    return lines;
  };
  const std::vector<std::string> la = project(a, false);
  const std::vector<std::string> lb = project(b, true);
  std::vector<std::string> sa = la;  // the same header sorts alike
  std::vector<std::string> sb = lb;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  out << "A: " << path_a << " (" << a.size() - 1 << " records)\nB: "
      << path_b << " (" << b.size() - 1 << " records)\ncompared columns: "
      << la[0] << "\nin order: " << (la == lb ? "match" : "differ")
      << "\nas a multiset: " << (sa == sb ? "match" : "differ") << '\n';

  std::map<std::string, std::pair<long long, long long>> counts;  // by kind
  for (const auto& [ia, ib] : cols) {
    if (a[0][ia] != "kind") continue;
    for (std::size_t r = 1; r < a.size(); ++r) ++counts[a[r][ia]].first;
    for (std::size_t r = 1; r < b.size(); ++r) ++counts[b[r][ib]].second;
  }
  if (!counts.empty()) {
    Table table({"kind", "A", "B", "B - A"});
    for (const auto& [k, n] : counts) {
      table.add_row({k, std::to_string(n.first), std::to_string(n.second),
                     std::to_string(n.second - n.first)});
    }
    out << "\nrecords per kind:\n" << table;
  }
  if (la == lb) return 0;
  std::size_t i = 1;
  while (i < la.size() && i < lb.size() && la[i] == lb[i]) ++i;
  const auto line = [&](const std::vector<std::string>& l) {
    return i < l.size() ? l[i] : std::string("(end of log)");
  };
  out << "\nfirst divergent record: " << i << "\n  " << la[0]
      << "\n  A: " << line(la) << "\n  B: " << line(lb) << '\n';
  return 1;
}

}  // namespace

int cmd_report(const std::vector<std::string>& tokens, std::ostream& out) {
  if (!tokens.empty() && tokens[0] == "--diff") {
    MECSCHED_REQUIRE(tokens.size() == 3,
                     "--diff takes exactly two decision-log CSVs");
    return report_diff(tokens[1], tokens[2], out);
  }
  ArgParser args({"flight", "top"}, {});
  args.parse(tokens);
  const std::string flight_path = args.get("flight", "");
  MECSCHED_REQUIRE(!flight_path.empty(),
                   "--flight <records.jsonl> is required");
  const std::size_t top_k = args.get_count("top", 5);

  // Null-tolerant field access: the dump writes NaN fields as JSON null.
  const auto str_field = [](const io::Json& j, const std::string& key) {
    return j.contains(key) && j.at(key).is_string() ? j.at(key).as_string()
                                                    : std::string("-");
  };
  const auto num_field = [](const io::Json& j, const std::string& key) {
    return j.contains(key) && j.at(key).is_number()
               ? j.at(key).as_number()
               : std::numeric_limits<double>::quiet_NaN();
  };
  const auto bool_field = [](const io::Json& j, const std::string& key) {
    return j.contains(key) && j.at(key).is_bool() && j.at(key).as_bool();
  };

  std::vector<io::Json> records;
  {
    std::istringstream lines(io::read_file(flight_path));
    std::string line;
    while (std::getline(lines, line)) {
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      records.push_back(io::Json::parse(line));
    }
  }
  out << "flight report: " << records.size() << " records from "
      << flight_path << '\n';
  if (records.empty()) return 0;

  // Outcome breakdown by (layer, engine, status). std::map keys keep the
  // rendering deterministic regardless of record order.
  struct Outcome {
    std::size_t count = 0;
    double seconds = 0.0;
  };
  std::map<std::tuple<std::string, std::string, std::string>, Outcome>
      outcomes;
  struct Miss {
    std::size_t count = 0;
    double min_residual_ms = std::numeric_limits<double>::quiet_NaN();
  };
  std::map<std::pair<std::string, std::string>, Miss> misses;
  for (const io::Json& r : records) {
    const std::string layer = str_field(r, "layer");
    const std::string engine = str_field(r, "engine");
    const std::string status = str_field(r, "status");
    Outcome& o = outcomes[{layer, engine, status}];
    ++o.count;
    const double s = num_field(r, "seconds");
    if (std::isfinite(s)) o.seconds += s;
    if (status == "deadline" || bool_field(r, "deadline_hit")) {
      Miss& m = misses[{layer, engine}];
      ++m.count;
      const double residual = num_field(r, "deadline_residual_ms");
      if (std::isfinite(residual) &&
          !(residual >= m.min_residual_ms)) {  // NaN-safe min
        m.min_residual_ms = residual;
      }
    }
  }

  out << "\noutcomes by layer/engine/status:\n";
  Table outcome_table({"layer", "engine", "status", "count", "seconds"});
  for (const auto& [key, o] : outcomes) {
    const auto& [layer, engine, status] = key;
    outcome_table.add_row({layer, engine, status, std::to_string(o.count),
                           Table::num(o.seconds, 6)});
  }
  out << outcome_table;

  if (!misses.empty()) {
    out << "\ndeadline misses (status deadline or expired budget):\n";
    Table miss_table({"layer", "engine", "misses", "min_residual_ms"});
    for (const auto& [key, m] : misses) {
      miss_table.add_row({key.first, key.second, std::to_string(m.count),
                          std::isfinite(m.min_residual_ms)
                              ? Table::num(m.min_residual_ms, 3)
                              : "-"});
    }
    out << miss_table;
  }

  // Top-k slowest solves, the usual first stop of a latency post-mortem.
  std::vector<const io::Json*> by_time;
  by_time.reserve(records.size());
  for (const io::Json& r : records) by_time.push_back(&r);
  std::stable_sort(by_time.begin(), by_time.end(),
                   [&](const io::Json* a, const io::Json* b) {
                     const double sa = num_field(*a, "seconds");
                     const double sb = num_field(*b, "seconds");
                     return (std::isfinite(sa) ? sa : -1.0) >
                            (std::isfinite(sb) ? sb : -1.0);
                   });
  if (by_time.size() > top_k) by_time.resize(top_k);
  out << "\ntop " << by_time.size() << " slowest solves:\n";
  Table slow_table(
      {"seq", "layer", "engine", "status", "seconds", "iters", "detail"});
  for (const io::Json* r : by_time) {
    const double seq = num_field(*r, "seq");
    const double iters = num_field(*r, "iterations");
    std::string detail = str_field(*r, "detail");
    if (detail.size() > 40) detail = detail.substr(0, 37) + "...";
    slow_table.add_row(
        {std::isfinite(seq) ? std::to_string(static_cast<long long>(seq))
                            : "-",
         str_field(*r, "layer"), str_field(*r, "engine"),
         str_field(*r, "status"), Table::num(num_field(*r, "seconds"), 6),
         std::isfinite(iters) ? std::to_string(static_cast<long long>(iters))
                              : "-",
         detail});
  }
  out << slow_table;

  return 0;
}

int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err) {
  if (argv.empty() || argv[0] == "--help" || argv[0] == "help") {
    out << usage();
    return argv.empty() ? 1 : 0;
  }
  const std::string command = argv[0];
  std::vector<std::string> rest(argv.begin() + 1, argv.end());

  GlobalFlags obs_flags;
  int code = 1;
  try {
    obs_flags = strip_global_flags(rest);
    if (obs_flags.obs_active()) obs::Registry::global().reset();
    obs::start_recording(obs_flags.outputs);
    if (obs_flags.has_jobs) exec::ThreadPool::set_default_jobs(obs_flags.jobs);
    if (obs_flags.has_audit) audit::set_level(obs_flags.audit_level);
    if (obs_flags.budget_ms > 0) {
      set_default_solve_budget_ms(obs_flags.budget_ms);
    }
    {
      const obs::ScopedTimer span("cli." + command, "cli");
      code = dispatch(command, rest, out, err);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    code = 1;
  }
  // The --jobs, --audit and --budget-ms overrides are per-invocation (the
  // test harness calls run() repeatedly in one process).
  if (obs_flags.has_jobs) exec::ThreadPool::set_default_jobs(0);
  if (obs_flags.has_audit) audit::set_level(audit::default_level());
  if (obs_flags.budget_ms > 0) set_default_solve_budget_ms(0.0);

  // Export even when the command failed — a trace of the failing run is
  // precisely the artifact worth keeping. The flight record doubly so: its
  // whole point is the post-mortem of a SolverError / audit failure /
  // blown deadline.
  try {
    obs::flush_outputs(obs_flags.outputs, out, err);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
  return code;
}

}  // namespace mecsched::cli
