// Discrete-event simulation core: a time-ordered queue of callbacks.
//
// Events at equal timestamps fire in insertion order (a monotone sequence
// number breaks ties), which makes every simulation run deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace mecsched::sim {

class EventQueue {
 public:
  using Callback = std::function<void(double now)>;

  // Schedules `cb` at absolute time `when` (must be >= the current time).
  void schedule(double when, Callback cb);

  // Runs until no events remain. Returns the time of the last event (0 if
  // none ran).
  double run();

  double now() const { return now_; }
  std::size_t processed() const { return processed_; }

 private:
  struct Event {
    double when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

// A FIFO, non-preemptive server (a radio link, a CPU, a backhaul pipe).
// acquire() returns the time service can start for a request arriving at
// `now` and books the server until start + duration.
class Resource {
 public:
  double acquire(double now, double duration);

  double busy_time() const { return busy_time_; }

 private:
  double free_at_ = 0.0;
  double busy_time_ = 0.0;
};

}  // namespace mecsched::sim
