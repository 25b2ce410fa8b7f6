// ScopedSignalStop: turns SIGINT/SIGTERM into a cooperative cancel.
//
// The daemon never dies mid-epoch: the signal handler only flips the
// CancellationSource's atomic flag (async-signal-safe — one relaxed store
// on a pre-existing atomic, no allocation, no locks). The epoch loop sees
// the flag at its next boundary, settles open tasks as abandoned, and
// returns normally — so the CLI's usual exit path still runs and
// --flight-out / --trace / --metrics-out capture the shutdown, which is
// exactly the run worth autopsying.
//
// At most one instance may be live at a time (the handler routes through
// one static slot); the previous handlers are restored on destruction.
#pragma once

#include "common/deadline.h"

namespace mecsched::serve {

class ScopedSignalStop {
 public:
  ScopedSignalStop();   // installs SIGINT + SIGTERM handlers
  ~ScopedSignalStop();  // restores the previous handlers

  ScopedSignalStop(const ScopedSignalStop&) = delete;
  ScopedSignalStop& operator=(const ScopedSignalStop&) = delete;

  CancellationToken token() const { return source_.token(); }

 private:
  CancellationSource source_;
};

}  // namespace mecsched::serve
