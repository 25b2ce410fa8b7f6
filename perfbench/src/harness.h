// Shared pieces of the repository benchmark: the report each workload
// fills, wall and CPU clocks, exact percentiles over raw samples, and the
// trace analysis that turns one traced pass into per-layer metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// What one workload run hands back to main(): metrics by name with their
// units, the exact work counters the cross-process repeat check compares,
// and every output check that failed.
struct Report {
  std::uint64_t attempted = 0;  // timed entry-point calls
  std::uint64_t failed = 0;     // calls that threw
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::string> failures;
  double reference_ms = 0.0;  // the run's fastest reference kernel (host record)

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Records a failed check once, however many calls fail it.
  void expect(bool ok, const std::string& what);
  bool correct() const { return failed == 0 && failures.empty(); }
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
// User + system CPU of the whole process (all threads), in seconds.
double process_cpu_s();
double peak_rss_mb();

// Linear interpolation between closest ranks over the raw samples (the
// definition numpy and Python's statistics "inclusive" method use).
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
std::size_t sum(const std::vector<std::size_t>& counts);

// Closed-loop call timing: each call starts when the previous returns.
// Keeps every call's wall time and the process CPU spent inside it.
class CallClock {
 public:
  template <class F>
  auto time(F&& call) {
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    auto result = call();
    wall_s_.push_back(seconds_since(t0));
    cpu_s_.push_back(process_cpu_s() - cpu0);
    return result;
  }

  const std::vector<double>& wall_s() const { return wall_s_; }
  const std::vector<double>& cpu_s() const { return cpu_s_; }
  std::size_t calls() const { return wall_s_.size(); }
  double total_wall_s() const;

 private:
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

// Wall time of one run of a fixed kernel of the benchmark's own (a sort
// and a hash-map pass over 128k values); no program code runs in it.
double reference_kernel_ms();
// What the reference kernel takes on a quiet 4-core Xeon VM (2.1 GHz).
inline constexpr double kReferenceMs = 16.0;

// Runs `build` `reps` times and returns the median wall time in seconds,
// each build scaled by the reference kernel timed right after it (see
// EndToEnd): the builds take a second or two, so the run's fastest kernel
// need not match the host speed they ran at.
template <class F>
double median_setup_s(int reps, F&& build) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    build();
    const double build_s = seconds_since(t0);
    const double ref_ms = std::min(reference_kernel_ms(), reference_kernel_ms());
    s.push_back(build_s * kReferenceMs / ref_ms);
  }
  return median(std::move(s));
}

// The end-to-end metrics every workload reports, named as in
// BENCHMARK.json. A run makes passes over the workload's fixed inputs; a
// pass makes one call per instance, in the same order every time, and
// every pass returns the same outputs (the workloads check this).
//
// The host shares its cores with other machines' work, and a fixed piece
// of code runs up to a third slower, within a pass or for a minute at a
// time. Against the short slowdowns, the timings come from each
// instance's fastest call over the run's passes: one sample per instance.
// Against the long ones, the reference kernel runs between passes and
// every time is scaled by kReferenceMs / (its fastest run), so times read
// as at the host speed where the kernel takes kReferenceMs. A run spent
// wholly in a slow stretch slows both alike: in six 25 s serve_city runs
// the fastest call spread by 35% and the scaled one by 14%.
struct EndToEnd {
  double setup_s = 0.0;              // from median_setup_s, already scaled
  double reference_ms = 0.0;         // fastest reference kernel so far
  std::vector<std::size_t> offered;  // tasks each instance offers
  std::vector<std::size_t> placed;   // tasks each instance places
  std::vector<double> best_ms;       // each instance's fastest call
  std::vector<double> best_cpu_s;    // process CPU of that call
  double placed_share = 0.0;
  double energy_j_per_task = 0.0;
  double involved_devices = 0.0;
  double max_share_items = 0.0;
  // serve_city measures the wait exactly on the daemon's virtual clock.
  // Batch calls leave this 0: every task of a call is admitted when the
  // call starts and decided when it returns, so it waits the call's wall
  // time, and the p99 is taken over tasks.
  double virtual_admit_to_decision_ms_p99 = 0.0;

  // Folds in the pass made of the CallClock's calls from `first_call` on,
  // then times the reference kernel.
  void add_pass(const CallClock& clock, std::size_t first_call);
};
void add_end_to_end(Report& report, const EndToEnd& e);

// ---- Traced runs -------------------------------------------------------

// Registry counters of the lp, lp_hta, serve, exec and fallback layers:
// the deterministic work counts the repeat check compares exactly.
std::map<std::string, std::uint64_t> layer_counters();

// What the benchmark measured itself, outside the program's spans.
struct BenchSide {
  std::uint64_t partial_tasks = 0;      // dta_division rearranged tasks
  std::vector<double> traced_wall_s;    // timed calls of each traced pass
  std::vector<double> untraced_wall_s;  // the same passes, tracer off
};

// The start of every traced run. `pass` runs one pass of the workload
// (its public calls wrapped in bench.* spans) and returns the wall time of
// its timed calls. After a warm-up pass, `rounds` untraced/traced pairs
// measure the tracer's overhead into `side`. Returns with the registry
// zeroed and the tracer enabled on an empty ring sized for one more pass,
// the one the caller analyzes.
void start_traced_run(BenchSide& side, int rounds,
                      const std::function<double()>& pass);

// Every per-layer metric of BENCHMARK.json from one traced pass: `events`
// are the spans it captured (the program's own plus the benchmark's
// bench.* spans around each public call) and `counters` the registry
// counters it moved. A layer the workload does not reach reads 0.
void add_layer_metrics(Report& report,
                       const std::vector<mecsched::obs::TraceEvent>& events,
                       const std::map<std::string, std::uint64_t>& counters,
                       const BenchSide& side);

// ---- Workloads ---------------------------------------------------------

Report run_serve_city(const Options& options);
Report run_dta_division(const Options& options);

}  // namespace perfbench
