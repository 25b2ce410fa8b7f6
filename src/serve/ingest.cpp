#include "serve/ingest.h"

#include <cmath>
#include <string>

#include "common/error.h"

namespace mecsched::serve {

IngestCursor::IngestCursor(const Trace& trace, BatchingOptions batching)
    : trace_(&trace), batching_(batching) {
  MECSCHED_REQUIRE(std::isfinite(batching_.window_s) &&
                       batching_.window_s > 0.0,
                   "batching window must be finite and positive, got " +
                       std::to_string(batching_.window_s));
}

Window IngestCursor::next_window() {
  const double from_s =
      anchor_s_ + static_cast<double>(ticks_) * batching_.window_s;
  Window w;
  w.close_s = anchor_s_ + static_cast<double>(ticks_ + 1) * batching_.window_s;
  const std::vector<Event>& events = trace_->events();
  const std::size_t first = next_;
  std::size_t arrivals = 0;
  while (next_ < events.size() && events[next_].time_s <= w.close_s) {
    const Event& e = events[next_++];
    if (e.kind == EventKind::kTaskArrival &&
        batching_.max_batch > 0 && ++arrivals >= batching_.max_batch) {
      // The cap'th arrival closes the window at its own timestamp; the
      // epoch boundary moves up, never back (simultaneous events already
      // consumed stay in this window).
      w.close_s = std::max(from_s, e.time_s);
      w.closed_by_size = true;
      break;
    }
  }
  if (w.closed_by_size) {
    anchor_s_ = w.close_s;
    ticks_ = 0;
  } else {
    ++ticks_;
  }
  w.events = std::span<const Event>(events).subspan(first, next_ - first);
  return w;
}

}  // namespace mecsched::serve
