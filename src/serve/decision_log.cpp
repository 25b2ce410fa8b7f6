#include "serve/decision_log.h"

#include <cstdio>

#include "exec/fingerprint.h"

namespace mecsched::serve {
namespace {

// Fixed-format double rendering: locale-independent, stream-state-free.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::kDecide:
      return "decide";
    case DecisionKind::kReject:
      return "reject";
    case DecisionKind::kExpire:
      return "expire";
    case DecisionKind::kLostIssuer:
      return "lost-issuer";
    case DecisionKind::kRetry:
      return "retry";
    case DecisionKind::kExhausted:
      return "exhausted";
    case DecisionKind::kAbandoned:
      return "abandoned";
    case DecisionKind::kRescue:
      return "rescue";
  }
  return "unknown";
}

void DecisionLog::write_csv(std::ostream& out) const {
  out << "epoch,time_s,user,index,kind,shard,decision,attempt,"
         "latency_s,energy_j\n";
  for (const DecisionRecord& r : records_) {
    out << r.epoch << ',' << fmt(r.time_s) << ',' << r.task.user << ','
        << r.task.index << ',' << to_string(r.kind) << ',' << r.shard << ','
        << assign::to_string(r.decision) << ',' << r.attempt << ','
        << fmt(r.latency_s) << ',' << fmt(r.energy_j) << '\n';
  }
}

std::uint64_t DecisionLog::digest() const {
  std::uint64_t h = exec::hash_string("mecsched.serve.decision_log");
  for (const DecisionRecord& r : records_) {
    h = exec::mix(h, r.epoch);
    h = exec::mix(h, exec::hash_string(fmt(r.time_s)));
    h = exec::mix(h, r.task.user);
    h = exec::mix(h, r.task.index);
    h = exec::mix(h, static_cast<std::uint64_t>(r.kind));
    h = exec::mix(h, r.shard);
    h = exec::mix(h, static_cast<std::uint64_t>(r.decision));
    h = exec::mix(h, r.attempt);
    h = exec::mix(h, exec::hash_string(fmt(r.latency_s)));
    h = exec::mix(h, exec::hash_string(fmt(r.energy_j)));
  }
  return h;
}

}  // namespace mecsched::serve
