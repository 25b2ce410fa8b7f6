#include "control/reconciler.h"

#include <algorithm>

namespace mecsched::control {

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

Interruptions Reconciler::device_left(std::size_t device, double t) {
  if (device >= refs_.size() || refs_[device].named == 0) return {};
  return sweep(Cause::kDeviceLeft, device, t);
}

Interruptions Reconciler::device_migrated(std::size_t device, double t) {
  if (device >= refs_.size() || refs_[device].offloaded == 0) return {};
  return sweep(Cause::kDeviceMigrated, device, t);
}

Interruptions Reconciler::station_down(std::size_t station, double t) {
  return sweep(Cause::kStationDown, station, t);
}

Interruptions Reconciler::sweep(Cause cause, std::size_t target, double t) {
  Interruptions out;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningTask& r = running_[i];
    const bool offloaded = r.where != assign::Decision::kLocal;
    std::vector<std::size_t>* hit = nullptr;
    if (r.finish_s > t) {  // still running when the event struck
      switch (cause) {
        case Cause::kDeviceLeft:
          if (r.issuer == target) {
            hit = &out.lost_issuer;
          } else if (r.has_external && r.owner == target) {
            hit = &out.orphaned;
          }
          break;
        case Cause::kDeviceMigrated:
          if (r.issuer == target && offloaded) hit = &out.orphaned;
          break;
        case Cause::kStationDown:
          if (r.station == target && offloaded) hit = &out.orphaned;
          break;
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

std::size_t Reconciler::settle(double now, std::vector<double>& device_used,
                              std::vector<double>& station_used) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningTask& r = running_[i];
    if (r.finish_s <= now) {
      release(r);
    } else {
      charge(r, now, device_used, station_used);
      running_[kept++] = r;
    }
  }
  const std::size_t done = running_.size() - kept;
  running_.resize(kept);
  return done;
}

}  // namespace mecsched::control
