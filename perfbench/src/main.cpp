// Runner of the repository benchmark: runs one workload and prints one
// JSON object with its metrics (name -> value and unit), the exact work
// counters, the failed output checks and a host record. perfbench/run.py
// builds it, runs it and turns that object into the benchmark's result
// line; see perfbench/README.md.
//
//   perfbench_runner --workload serve_city|dta_division
//                    --seed N --seconds S --trace 0|1
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "audit/audit.h"
#include "harness.h"

namespace {

using perfbench::Report;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Report& r, std::ostream& out) {
  out << "{\"correct\": " << (r.correct() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    out << sep << json_string(name) << ": {\"value\": " << json_number(m.first)
        << ", \"unit\": " << json_string(m.second) << "}";
    sep = ", ";
  }
  out << "}, \"counters\": {";
  sep = "";
  for (const auto& [name, v] : r.counters) {
    out << sep << json_string(name) << ": " << v;
    sep = ", ";
  }
  out << "}, \"failures\": [";
  sep = "";
  for (const std::string& f : r.failures) {
    out << sep << json_string(f);
    sep = ", ";
  }
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out << "], \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(compiler)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"audit\": "
      << json_string(mecsched::audit::to_string(mecsched::audit::level()))
      << ", \"serve_jobs\": 1, \"reference_ms\": " << json_number(r.reference_ms)
      << ", \"reference_nominal_ms\": " << json_number(perfbench::kReferenceMs)
      << "}}\n";
}

bool parse(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        o.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: perfbench_runner --workload serve_city|dta_division "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  Report r;
  try {
    if (o.workload == "serve_city") {
      r = perfbench::run_serve_city(o);
    } else if (o.workload == "dta_division") {
      r = perfbench::run_dta_division(o);
    } else {
      std::cerr << "unknown workload: " << o.workload << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    r = Report{};
    r.attempted = 1;
    r.failed = 1;
    r.failures.push_back(std::string("a call threw: ") + e.what());
  }
  print(r, std::cout);
  return r.correct() ? 0 : 1;
}
