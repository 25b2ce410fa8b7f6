#include "serve/reconciler.h"

#include <algorithm>

namespace mecsched::serve {

void Reconciler::retain(const RunningTask& t) {
  const std::size_t top =
      std::max(t.issuer, t.has_external ? t.owner : std::size_t{0});
  if (top >= refs_.size()) refs_.resize(top + 1);
  ++refs_[t.issuer].named;
  if (t.where != assign::Decision::kLocal) ++refs_[t.issuer].offloaded;
  if (t.has_external) ++refs_[t.owner].named;
}

void Reconciler::release(const RunningTask& t) {
  --refs_[t.issuer].named;
  if (t.where != assign::Decision::kLocal) --refs_[t.issuer].offloaded;
  if (t.has_external) --refs_[t.owner].named;
}

void Reconciler::start(const RunningTask& t) {
  running_.push_back(t);
  retain(t);
}

Interruptions Reconciler::observe(const Event& e) {
  Interruptions out;
  if (e.kind != EventKind::kDeviceLeave &&
      e.kind != EventKind::kDeviceMigrate) {
    return out;
  }
  if (e.device >= refs_.size()) return out;
  const Refs& refs = refs_[e.device];
  if ((e.kind == EventKind::kDeviceLeave ? refs.named : refs.offloaded) == 0) {
    return out;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningTask& r = running_[i];
    std::vector<std::size_t>* hit = nullptr;
    if (r.finish_s > e.time_s) {  // still running when the event struck
      if (e.kind == EventKind::kDeviceLeave) {
        if (r.issuer == e.device) {
          hit = &out.lost_issuer;
        } else if (r.has_external && r.owner == e.device) {
          hit = &out.orphaned;
        }
      } else if (r.issuer == e.device &&
                 r.where != assign::Decision::kLocal) {  // kDeviceMigrate
        hit = &out.orphaned;
      }
    }
    if (hit != nullptr) {
      hit->push_back(r.id);
      release(r);
    } else {
      running_[kept++] = r;
    }
  }
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(kept),
                 running_.end());
  return out;
}

std::vector<std::size_t> Reconciler::collect_completions(double now) {
  std::vector<std::size_t> done;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningTask& r = running_[i];
    if (r.finish_s <= now) {
      done.push_back(r.id);
      release(r);
    } else {
      running_[kept++] = r;
    }
  }
  running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(kept),
                 running_.end());
  return done;
}

void Reconciler::occupancy(double now, std::vector<double>& device_used,
                           std::vector<double>& station_used) const {
  for (const RunningTask& r : running_) {
    if (r.finish_s <= now) continue;
    if (r.where == assign::Decision::kLocal) {
      device_used[r.issuer] += r.resource;
    } else if (r.where == assign::Decision::kEdge) {
      station_used[r.station] += r.resource;
    }
  }
}

}  // namespace mecsched::serve
