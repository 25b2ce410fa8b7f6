// Ingest path: batching windows over the event trace.
//
// The daemon does not decide per arrival — it accumulates a *window* of
// events and decides at the window boundary (the epoch). A window closes
// on whichever comes first:
//   * the deadline: the next tick of a window_s grid anchored at 0 — the
//     k-th window closes at (k+1)·window_s, computed as one product, not
//     as a running sum, so every boundary is exact to the last bit;
//   * the size cap: the max_batch'th task arrival (when max_batch > 0) —
//     a burst closes the window early so queueing delay stays bounded.
//     The grid then restarts at that arrival's timestamp.
#pragma once

#include <cstddef>
#include <span>

#include "serve/event.h"

namespace mecsched::serve {

struct BatchingOptions {
  double window_s = 0.5;      // epoch length on the virtual clock
  std::size_t max_batch = 0;  // arrivals that force an early close; 0 = off
};

// One closed batching window. `events` views a contiguous range of the
// trace in place, so it is valid while the trace lives.
struct Window {
  double close_s = 0.0;           // the epoch boundary: decisions happen here
  std::span<const Event> events;  // trace order, time_s <= close_s
  bool closed_by_size = false;
};

// Positional reader of the trace: each next_window() consumes the events
// of one window. Pure function of (trace, options, call sequence) — no
// wall clock — so replays are exact.
class IngestCursor {
 public:
  // Throws ModelError for a non-positive or non-finite window_s.
  IngestCursor(const Trace& trace, BatchingOptions batching);

  // Closes and returns the next window, which opens where the previous
  // one closed (at 0 for the first). Includes every remaining event with
  // time_s <= close; when max_batch is set, the max_batch'th arrival is
  // included and closes the window at its own timestamp (so the next
  // window opens there).
  Window next_window();

 private:
  const Trace* trace_;
  BatchingOptions batching_;
  std::size_t next_ = 0;     // first unconsumed event
  double anchor_s_ = 0.0;    // the grid origin: 0, or the last size close
  std::size_t ticks_ = 0;    // deadline closes since the anchor
};

}  // namespace mecsched::serve
