#include "obs/flight_recorder.h"

#include <algorithm>

namespace mecsched::obs {
namespace {

// Where this thread's records go instead of the ring; null for the ring.
thread_local std::vector<SolveRecord>* held = nullptr;

}  // namespace

FlightRecorder& FlightRecorder::global() {
  // lint:allow-naked-new -- intentionally leaked singleton, like Registry.
  static FlightRecorder* instance = new FlightRecorder();
  return *instance;
}

void FlightRecorder::enable(std::size_t capacity) {
  ring_.clear(std::max<std::size_t>(capacity, 1));
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void FlightRecorder::record(SolveRecord r) {
  if (!enabled()) return;
  if (held != nullptr) {
    held->push_back(std::move(r));
    return;
  }
  ring_.push(std::move(r));
}

std::vector<SolveRecord> FlightRecorder::snapshot() const {
  std::uint64_t seq = 0;
  std::vector<SolveRecord> out = ring_.snapshot(&seq);
  for (SolveRecord& r : out) r.seq = seq++;
  return out;
}

FlightRecorder::Hold::Hold(std::vector<SolveRecord>& into) : outer_(held) {
  held = &into;
}

FlightRecorder::Hold::~Hold() { held = outer_; }

}  // namespace mecsched::obs
