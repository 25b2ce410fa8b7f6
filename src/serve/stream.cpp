#include "serve/stream.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/error.h"
#include "serve/event.h"

namespace mecsched::serve {
namespace {

// The stream as a daemon trace (the mapping in serve/stream.h).
Trace stream_trace(const mec::Topology& universe,
                   const std::vector<mec::TimedTask>& tasks,
                   const sim::FaultSchedule& faults) {
  faults.validate_against(universe.num_devices(),
                          universe.num_base_stations());
  std::vector<Event> events;
  events.reserve(tasks.size() + faults.size());
  for (const mec::TimedTask& tt : tasks) {
    events.push_back(Event::arrival(tt.release_s, tt.task));
  }
  for (const sim::FaultEvent& f : faults.events()) {
    switch (f.kind) {
      case sim::FaultKind::kDeviceFail:
        events.push_back(Event::leave(f.time_s, f.target));
        break;
      case sim::FaultKind::kDeviceRecover:
        events.push_back(Event::join(f.time_s, f.target,
                                     universe.device(f.target).base_station));
        break;
      case sim::FaultKind::kStationFail:
        events.push_back(Event::station_down(f.time_s, f.target));
        break;
      case sim::FaultKind::kStationRecover:
        events.push_back(Event::station_up(f.time_s, f.target));
        break;
      case sim::FaultKind::kLinkDegrade:
        events.push_back(Event::link_fade(f.time_s, f.target, f.factor));
        break;
      case sim::FaultKind::kLinkRestore:
        events.push_back(Event::link_fade(f.time_s, f.target, 1.0));
        break;
    }
  }
  return Trace(std::move(events));
}

}  // namespace

StreamResult run_stream(const ServeOptions& options,
                        const mec::Topology& universe,
                        const std::vector<mec::TimedTask>& tasks,
                        const sim::FaultSchedule& faults,
                        const SharedDataView* shared) {
  // Release order, simultaneous releases in input order: the order of the
  // trace's arrivals.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tasks[a].release_s < tasks[b].release_s;
                   });

  std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const mec::TaskId& id = tasks[i].task.id;
    MECSCHED_REQUIRE(index.emplace(std::pair(id.user, id.index), i).second,
                     "stream task ids must be unique; " + mec::to_string(id) +
                         " appears twice");
  }

  std::optional<SharedDataView> view;
  if (shared != nullptr) {
    MECSCHED_REQUIRE(shared->task_items.size() == tasks.size(),
                     "SharedDataView::task_items must align with tasks (" +
                         std::to_string(shared->task_items.size()) + " vs " +
                         std::to_string(tasks.size()) + ")");
    view.emplace(SharedDataView{shared->item_bytes, shared->ownership, {}});
    view->task_items.reserve(tasks.size());
    for (const std::size_t i : order) {
      view->task_items.push_back(shared->task_items[i]);
    }
  }

  const Trace trace = stream_trace(universe, tasks, faults);
  DecisionLog log;
  StreamResult out;
  out.serve = ServeDaemon(options).run(universe, trace, &log, {},
                                       view ? &*view : nullptr);

  out.outcomes.assign(tasks.size(), StreamOutcome{});
  for (const DecisionRecord& r : log.records()) {
    StreamOutcome o{r.kind, assign::Decision::kCancelled, 0.0, 0.0,
                    r.attempt};
    if (o.completed()) {
      o.decision = r.decision;
      o.start_s = r.time_s;
      o.finish_s = r.finish_s;
    }
    out.outcomes[index.at({r.task.user, r.task.index})] = o;
  }

  double response_sum = 0.0;
  for (const std::size_t i : order) {
    const StreamOutcome& o = out.outcomes[i];
    if (o.completed()) response_sum += o.finish_s - tasks[i].release_s;
  }
  out.mean_response_s =
      out.serve.completed == 0
          ? 0.0
          : response_sum / static_cast<double>(out.serve.completed);
  return out;
}

}  // namespace mecsched::serve
