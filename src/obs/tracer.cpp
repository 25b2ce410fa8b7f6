#include "obs/tracer.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "obs/registry.h"

namespace mecsched::obs {
namespace {

std::uint64_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Tracer& Tracer::global() {
  // lint:allow-naked-new -- intentionally leaked singleton, like Registry.
  static Tracer* instance = new Tracer();
  return *instance;
}

std::int64_t Tracer::steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::enable(std::size_t capacity) {
  ring_.clear(std::max<std::size_t>(capacity, 1));
  epoch_ns_.store(steady_now_ns(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::int64_t Tracer::now_us() const {
  // Same truncation as the previous duration_cast-to-microseconds of a
  // time_point difference: integer nanoseconds divided toward zero.
  return (steady_now_ns() - epoch_ns_.load(std::memory_order_relaxed)) /
         1000;
}

void Tracer::push(TraceEvent ev) {
  if (!ring_.push(std::move(ev))) return;
  // Surface the overflow outside the trace file too: the CLI and bench
  // harness warn on exit when this counter moved (the trace JSON alone
  // buries the loss in otherData). The reference is stable across
  // Registry::reset(), so resolving it once is safe.
  static Counter& dropped_events =
      Registry::global().counter("obs.tracer.dropped_events");
  dropped_events.add();
}

void Tracer::complete(std::string_view name, std::string_view category,
                      std::int64_t ts_us, std::int64_t dur_us,
                      const std::string& args_json) {
  if (!enabled()) return;
  push({std::string(name), std::string(category), Phase::kComplete, ts_us,
        dur_us, this_thread_id(), args_json});
}

void Tracer::instant(const std::string& name, const std::string& category,
                     const std::string& args_json) {
  if (!enabled()) return;
  push({name, category, Phase::kInstant, now_us(), 0, this_thread_id(),
        args_json});
}

std::vector<TraceEvent> Tracer::snapshot() const { return ring_.snapshot(); }

ScopedTimer::ScopedTimer(std::string name, std::string category,
                         std::string args_json)
    : owned_name_(std::move(name)),
      owned_category_(std::move(category)),
      name_(owned_name_),
      category_(owned_category_),
      args_json_(std::move(args_json)),
      histogram_(&Registry::global().histogram(owned_name_ + ".seconds")) {
  start();
}

ScopedTimer::ScopedTimer(Histogram& histogram, std::string_view name,
                         std::string_view category, std::string args_json)
    : name_(name),
      category_(category),
      args_json_(std::move(args_json)),
      histogram_(&histogram) {
  start();
}

void ScopedTimer::start() {
  start_ = std::chrono::steady_clock::now();
  Tracer& t = Tracer::global();
  traced_ = t.enabled();
  if (traced_) start_us_ = t.now_us();
}

ScopedTimer::~ScopedTimer() {
  const double seconds = elapsed_s();
  histogram_->observe(seconds);
  if (traced_) {
    Tracer& t = Tracer::global();
    // Re-check: the tracer may have been disabled mid-span (complete() is
    // a no-op then, which is fine — the metrics side already recorded).
    t.complete(name_, category_, start_us_,
               static_cast<std::int64_t>(seconds * 1e6), args_json_);
  }
}

double ScopedTimer::elapsed_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace mecsched::obs
