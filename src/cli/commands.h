// The mecsched command set. Each command is a pure function from parsed
// arguments to an exit code, writing results to the given stream, so the
// whole CLI is unit-testable without spawning processes.
//
//   generate        — build a scenario from generator knobs, write JSON
//   assign          — run an algorithm on a scenario, write plan JSON
//   evaluate        — score a plan (energy/latency/unsatisfied/feasibility)
//   simulate        — replay a plan on the discrete-event simulator
//   compare         — run every algorithm on a scenario, print the table
//   generate-shared — build a data-shared (divisible-task) scenario
//   dta             — run the DTA pipeline on a shared scenario
//   sensitivity     — capacity shadow prices of a scenario
//   trace           — simulate a plan and dump the event timeline
//   generate-arrivals — Poisson-timed scenario for the online scheduler
//   online          — run a timed scenario through the serve daemon
//   breakdown       — itemized Sec. II cost legs of one task
//   recover         — repair a plan after a device failure
//   churn           — run a timed scenario through the serve daemon under
//                     generated faults
//   sweep           — run a named figure grid on the parallel sweep runner
//   chaos           — solver fault-injection drill over the fallback chain
//   generate-serve  — build a serve workload (universe + event trace)
//   serve           — online scheduling daemon (replay or generate)
//   report          — render a flight-record post-mortem (see --flight-out)
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace mecsched::cli {

// Dispatches `mecsched <command> ...`. argv excludes the program name.
// Returns the process exit code; errors are printed to `err`.
int run(const std::vector<std::string>& argv, std::ostream& out,
        std::ostream& err);

// Individual commands (tokens exclude the command name).
int cmd_generate(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_assign(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_evaluate(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_simulate(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_compare(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_generate_shared(const std::vector<std::string>& tokens,
                        std::ostream& out);
int cmd_sensitivity(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_breakdown(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_recover(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_generate_arrivals(const std::vector<std::string>& tokens,
                          std::ostream& out);
int cmd_online(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_trace(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_dta(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_churn(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_sweep(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_chaos(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_generate_serve(const std::vector<std::string>& tokens,
                       std::ostream& out);
int cmd_serve(const std::vector<std::string>& tokens, std::ostream& out);
int cmd_report(const std::vector<std::string>& tokens, std::ostream& out);

std::string usage();

}  // namespace mecsched::cli
