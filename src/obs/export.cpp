#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace mecsched::obs {
namespace {

// Minimal JSON string escaping (the trace writer cannot depend on io/,
// which sits above obs in the layer order).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*, conventionally
// namespaced. Dots and dashes become underscores.
std::string prom_name(const std::string& name) {
  std::string out = "mecsched_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prom_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  MECSCHED_REQUIRE(f.good(), "cannot open for writing: " + path);
  f << content;
  MECSCHED_REQUIRE(f.good(), "write failed: " + path);
}

}  // namespace

std::string to_chrome_json(const Tracer& tracer) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : tracer.snapshot()) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << json_escape(ev.category) << "\",\"ph\":\""
       << static_cast<char>(ev.phase) << "\",\"ts\":" << ev.ts_us
       << ",\"pid\":1,\"tid\":" << (ev.tid % 1000000);
    if (ev.phase == Phase::kComplete) os << ",\"dur\":" << ev.dur_us;
    if (ev.phase == Phase::kInstant) os << ",\"s\":\"t\"";
    if (!ev.args_json.empty()) os << ",\"args\":{" << ev.args_json << "}";
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << tracer.dropped() << "}}\n";
  return os.str();
}

std::string to_prometheus(const Registry& registry) {
  std::ostringstream os;
  for (const auto& [name, value] : registry.counters()) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << "_total counter\n"
       << p << "_total " << value << "\n";
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n" << p << " " << prom_num(value) << "\n";
  }
  for (const auto& [name, hist] : registry.histograms()) {
    const std::string p = prom_name(name);
    const Summary s = hist->summary();
    os << "# TYPE " << p << " histogram\n";
    const std::vector<double>& bounds = Histogram::bucket_bounds();
    const std::vector<std::uint64_t> cumulative = hist->cumulative_buckets();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      os << p << "_bucket{le=\"" << prom_num(bounds[i]) << "\"} "
         << cumulative[i] << "\n";
    }
    os << p << "_bucket{le=\"+Inf\"} " << s.count() << "\n"
       << p << "_sum " << prom_num(s.sum()) << "\n"
       << p << "_count " << s.count() << "\n";
  }
  return os.str();
}

Table summary_table(const Registry& registry) {
  Table t({"metric", "kind", "count", "total", "mean", "min", "max", "p50",
           "p90", "p99"});
  for (const auto& [name, value] : registry.counters()) {
    t.add_row({name, "counter", std::to_string(value), "-", "-", "-", "-",
               "-", "-", "-"});
  }
  for (const auto& [name, value] : registry.gauges()) {
    t.add_row({name, "gauge", "-", Table::num(value, 4), "-", "-", "-", "-",
               "-", "-"});
  }
  for (const auto& [name, hist] : registry.histograms()) {
    const Summary s = hist->summary();
    if (s.count() == 0) {
      t.add_row({name, "histogram", "0", "-", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    t.add_row({name, "histogram", std::to_string(s.count()),
               Table::num(s.sum(), 4), Table::num(s.mean(), 6),
               Table::num(s.min(), 6), Table::num(s.max(), 6),
               Table::num(hist->approx_percentile(0.50), 6),
               Table::num(hist->approx_percentile(0.90), 6),
               Table::num(hist->approx_percentile(0.99), 6)});
  }
  return t;
}

namespace {

std::string json_num_or_null(double v) {
  if (std::isnan(v) || std::isinf(v)) return "null";
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string to_flight_jsonl(const FlightRecorder& recorder) {
  std::ostringstream os;
  for (const SolveRecord& r : recorder.snapshot()) {
    os << "{\"seq\":" << r.seq << ",\"layer\":\"" << json_escape(r.layer)
       << "\",\"engine\":\"" << json_escape(r.engine) << "\",\"status\":\""
       << json_escape(r.status) << "\",\"detail\":\"" << json_escape(r.detail)
       << "\",\"seconds\":" << json_num_or_null(r.seconds)
       << ",\"iterations\":" << r.iterations << ",\"deadline_residual_ms\":"
       << json_num_or_null(r.deadline_residual_ms) << ",\"deadline_hit\":"
       << (r.deadline_hit ? "true" : "false") << ",\"warm_start\":"
       << (r.warm_start ? "true" : "false") << ",\"chaos_hits\":"
       << r.chaos_hits << ",\"audit\":\"" << json_escape(r.audit) << "\"}\n";
  }
  return os.str();
}

void start_recording(const OutputFiles& files) {
  if (!files.trace.empty()) Tracer::global().enable();
  if (!files.flight.empty()) FlightRecorder::global().enable();
}

void flush_outputs(const OutputFiles& files, std::ostream& out,
                   std::ostream& err) {
  if (!files.trace.empty()) {
    Tracer& tracer = Tracer::global();
    const std::uint64_t drops = tracer.dropped();
    write_text_file(files.trace, to_chrome_json(tracer));
    tracer.disable();
    out << "wrote trace " << files.trace << '\n';
    if (drops > 0) {
      err << "warning: tracer ring overflowed; dropped " << drops
          << " events (see obs.tracer.dropped_events)\n";
    }
  }
  if (!files.flight.empty()) {
    FlightRecorder& flight = FlightRecorder::global();
    write_text_file(files.flight, to_flight_jsonl(flight));
    out << "wrote flight record " << files.flight << '\n';
    if (flight.dropped() > 0) {
      err << "warning: flight recorder ring overflowed; dropped "
          << flight.dropped() << " records\n";
    }
    flight.disable();
  }
  if (!files.metrics.empty()) {
    write_text_file(files.metrics, to_prometheus(Registry::global()));
    out << "wrote metrics " << files.metrics << '\n';
  }
  if (files.summary) out << summary_table(Registry::global());
}

}  // namespace mecsched::obs
