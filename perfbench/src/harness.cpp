#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <string_view>
#include <unordered_map>

#include "obs/registry.h"

namespace perfbench {

using mecsched::obs::Phase;
using mecsched::obs::Registry;
using mecsched::obs::TraceEvent;
using mecsched::obs::Tracer;

void Report::expect(bool ok, const std::string& what) {
  if (ok || std::find(failures.begin(), failures.end(), what) != failures.end()) {
    return;
  }
  failures.push_back(what);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::size_t sum(const std::vector<std::size_t>& counts) {
  std::size_t s = 0;
  for (const std::size_t n : counts) s += n;
  return s;
}

double reference_kernel_ms() {
  static const std::vector<double> input = [] {
    std::vector<double> v(std::size_t{1} << 17);
    std::uint32_t x = 12345;
    for (double& d : v) {
      x = x * 1664525u + 1013904223u;
      d = static_cast<double>(x) * 1e-9;
    }
    return v;
  }();
  static volatile double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> v = input;
  std::sort(v.begin(), v.end());
  const auto key = [](double d) {
    return static_cast<std::uint32_t>(d * 1e6) & 0xFFFFFu;
  };
  std::unordered_map<std::uint32_t, double> sums;
  sums.reserve(std::size_t{1} << 15);
  for (std::size_t i = 0; i < v.size(); i += 2) sums[key(v[i])] += v[i];
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); i += 3) {
    const auto it = sums.find(key(v[i]));
    if (it != sums.end()) acc += it->second;
  }
  sink = sink + acc;
  return seconds_since(t0) * 1e3;
}

double CallClock::total_wall_s() const {
  double s = 0.0;
  for (const double w : wall_s_) s += w;
  return s;
}

void EndToEnd::add_pass(const CallClock& clock, std::size_t first_call) {
  const bool first_pass = best_ms.empty();
  for (std::size_t i = first_call; i < clock.calls(); ++i) {
    const double ms = clock.wall_s()[i] * 1e3;
    const std::size_t k = i - first_call;
    if (first_pass) {
      best_ms.push_back(ms);
      best_cpu_s.push_back(clock.cpu_s()[i]);
    } else if (k < best_ms.size() && ms < best_ms[k]) {
      best_ms[k] = ms;
      best_cpu_s[k] = clock.cpu_s()[i];
    }
  }
  for (int i = 0; i < 3; ++i) {
    const double ms = reference_kernel_ms();
    if (reference_ms == 0.0 || ms < reference_ms) reference_ms = ms;
  }
}

void add_end_to_end(Report& report, const EndToEnd& e) {
  report.expect(e.best_ms.size() == e.offered.size() &&
                    e.best_ms.size() == e.placed.size(),
                "every pass makes one call per instance");
  report.expect(e.reference_ms > 0.0, "the reference kernel was timed");
  report.reference_ms = e.reference_ms;
  const double scale = e.reference_ms > 0.0 ? kReferenceMs / e.reference_ms : 0.0;
  std::vector<double> best_ms;
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  std::vector<double> waits_ms;
  for (std::size_t i = 0; i < e.best_ms.size() && i < e.offered.size(); ++i) {
    best_ms.push_back(e.best_ms[i] * scale);
    wall_ms += best_ms.back();
    cpu_s += e.best_cpu_s[i] * scale;
    waits_ms.insert(waits_ms.end(), e.offered[i], best_ms.back());
  }
  const std::size_t offered = sum(e.offered);
  const std::size_t placed = sum(e.placed);
  const auto calls = static_cast<double>(best_ms.size());
  report.metric("setup_s", e.setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("decisions_per_s", static_cast<double>(placed) * 1e3 / wall_ms,
                "1/s");
  report.metric("instances_per_s", calls * 1e3 / wall_ms, "1/s");
  report.metric("cpu_us_per_task",
                cpu_s * 1e6 / static_cast<double>(offered), "us");
  report.metric("solve_ms_p50", percentile(best_ms, 0.50), "ms");
  report.metric("solve_ms_p95", percentile(best_ms, 0.95), "ms");
  report.metric("placed_share", e.placed_share, "1");
  report.metric("energy_j_per_task", e.energy_j_per_task, "J");
  report.metric("admit_to_decision_ms_p99",
                e.virtual_admit_to_decision_ms_p99 > 0.0
                    ? e.virtual_admit_to_decision_ms_p99
                    : percentile(std::move(waits_ms), 0.99),
                "ms");
  report.metric("involved_devices", e.involved_devices, "1");
  report.metric("max_share_items", e.max_share_items, "1");
  for (const auto& [name, m] : report.metrics) {
    report.expect(std::isfinite(m.first) && m.first > 0.0,
                  name + " is a positive finite number");
  }
}

namespace {

// Every obs::ScopedTimer feeds a `<span>.seconds` registry histogram, so
// the passes run so far tell how many spans one more pass emits.
void enable_tracer_for_pass(std::size_t passes_so_far) {
  std::size_t spans = 0;
  for (const auto& [name, histogram] : Registry::global().histograms()) {
    if (name.ends_with(".seconds")) spans += histogram->summary().count();
  }
  Tracer::global().enable(2 * spans / passes_so_far + 4096);
}

}  // namespace

void start_traced_run(BenchSide& side, int rounds,
                      const std::function<double()>& pass) {
  pass();
  std::size_t passes = 1;
  for (int i = 0; i < rounds; ++i) {
    side.untraced_wall_s.push_back(pass());
    enable_tracer_for_pass(++passes);
    side.traced_wall_s.push_back(pass());
    Tracer::global().disable();
    ++passes;
  }
  enable_tracer_for_pass(passes);
  Registry::global().reset();
}

std::map<std::string, std::uint64_t> layer_counters() {
  constexpr std::string_view kLayers[] = {"lp.", "lp_hta.", "serve.", "exec.",
                                          "fallback."};
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : Registry::global().counters()) {
    for (const std::string_view layer : kLayers) {
      if (name.starts_with(layer)) {
        out[name] = value;
        break;
      }
    }
  }
  return out;
}

namespace {

struct Span {
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  double ms() const { return static_cast<double>(end_us - begin_us) * 1e-3; }
};

// Complete events named `name`, sorted by start.
std::vector<Span> spans_named(const std::vector<TraceEvent>& events,
                              std::string_view name) {
  std::vector<Span> out;
  for (const TraceEvent& e : events) {
    if (e.phase == Phase::kComplete && e.name == name) {
      out.push_back({e.ts_us, e.ts_us + e.dur_us});
    }
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.begin_us < b.begin_us;
  });
  return out;
}

double total_ms(const std::vector<Span>& spans) {
  double ms = 0.0;
  for (const Span& s : spans) ms += s.ms();
  return ms;
}

// Self time: the part of `outer` that no span of `inner` (sorted by start,
// on any thread) overlaps.
double uncovered_ms(const Span& outer, const std::vector<Span>& inner) {
  std::int64_t covered = 0;
  std::int64_t cursor = outer.begin_us;
  for (const Span& s : inner) {
    const std::int64_t b = std::max(s.begin_us, cursor);
    const std::int64_t e = std::min(s.end_us, outer.end_us);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return outer.ms() - static_cast<double>(covered) * 1e-3;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_layer_metrics(Report& report, const std::vector<TraceEvent>& events,
                       const std::map<std::string, std::uint64_t>& counters,
                       const BenchSide& side) {
  const auto count = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto span_ms = [&](std::string_view name) {
    return total_ms(spans_named(events, name));
  };
  const auto counts = [&](std::initializer_list<const char*> names) {
    for (const char* name : names) report.metric(name, count(name), "count");
  };

  // workload
  report.metric("workload.generate_s", span_ms("bench.workload.generate") * 1e-3,
                "s");

  // serve: epoch self time is the epoch minus the LP-HTA solves it waits on.
  const std::vector<Span> assigns = spans_named(events, "lp_hta.assign");
  std::vector<double> epoch_ms;
  double epoch_self_ms = 0.0;
  for (const Span& epoch : spans_named(events, "serve.epoch")) {
    epoch_ms.push_back(epoch.ms());
    epoch_self_ms += uncovered_ms(epoch, assigns);
  }
  report.metric("serve.run_s", span_ms("serve.run") * 1e-3, "s");
  report.metric("serve.epoch_ms_p50", percentile(epoch_ms, 0.5), "ms");
  report.metric("serve.epoch_ms_max",
                epoch_ms.empty()
                    ? 0.0
                    : *std::max_element(epoch_ms.begin(), epoch_ms.end()),
                "ms");
  report.metric("serve.epoch_self_ms", epoch_self_ms, "ms");
  counts({"serve.shard_solves", "serve.readmissions", "serve.expired",
          "serve.orphans", "serve.epochs"});

  // exec
  counts({"exec.cache.hits", "exec.cache.misses", "exec.pool.tasks"});
  report.metric("exec.cache.hit_ratio",
                ratio(count("exec.cache.hits"),
                      count("exec.cache.hits") + count("exec.cache.misses")),
                "1");

  // control
  counts({"fallback.served.LP-HTA"});
  report.metric("fallback.lp_hta_share",
                ratio(count("fallback.served.LP-HTA"),
                      count("serve.shard_solves")),
                "1");

  // assign
  report.metric("lp_hta.assign_ms", total_ms(assigns), "ms");
  report.metric("lp_hta.relax_ms", span_ms("lp_hta.relax"), "ms");
  report.metric("lp_hta.round_ms", span_ms("lp_hta.round"), "ms");
  report.metric("lp_hta.repair_ms", span_ms("lp_hta.repair"), "ms");
  const auto passes =
      static_cast<double>(spans_named(events, "lp_hta.cluster").size());
  report.metric("lp_hta.cluster_passes", passes, "count");
  counts({"lp_hta.clusters_solved", "lp_hta.repair_moves",
          "lp_hta.cancelled_infeasible", "lp_hta.cancelled_capacity"});
  report.metric("lp_hta.solved_share",
                ratio(count("lp_hta.clusters_solved"), passes), "1");

  // lp
  counts({"lp.simplex.solves", "lp.simplex.warm_solves", "lp.simplex.pivots",
          "lp.simplex.refactorizations", "lp.simplex.eta_updates",
          "lp.simplex.workspace_grows"});
  const double solve_ms = span_ms("lp.simplex.solve");
  report.metric("lp.simplex.solve_ms", solve_ms, "ms");
  report.metric("lp.simplex.pivots_per_s",
                ratio(count("lp.simplex.pivots"), solve_ms * 1e-3), "1/s");

  // dta: the pipeline's own work is run_dta minus the two divisions.
  const double balanced_ms = span_ms("bench.dta.divide_balanced");
  const double min_devices_ms = span_ms("bench.dta.divide_min_devices");
  const double run_dta_ms = span_ms("bench.dta.run_dta");
  report.metric("dta.divide_balanced_ms", balanced_ms, "ms");
  report.metric("dta.divide_min_devices_ms", min_devices_ms, "ms");
  report.metric("dta.pipeline_rest_ms",
                run_dta_ms > 0.0 ? run_dta_ms - balanced_ms - min_devices_ms
                                 : 0.0,
                "ms");
  report.metric("dta.partial_tasks", static_cast<double>(side.partial_tasks),
                "count");

  // obs
  const std::uint64_t dropped = Tracer::global().dropped();
  // Fastest pass against fastest pass, as the end-to-end timings do.
  const auto fastest = [](const std::vector<double>& s) {
    return s.empty() ? 0.0 : *std::min_element(s.begin(), s.end());
  };
  report.metric("obs.trace_overhead_share",
                ratio(fastest(side.traced_wall_s),
                      fastest(side.untraced_wall_s)) -
                    1.0,
                "1");
  report.metric("obs.tracer.dropped_events", static_cast<double>(dropped),
                "count");
  report.expect(dropped == 0, "the trace ring dropped no events");
}

}  // namespace perfbench
