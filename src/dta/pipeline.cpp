#include "dta/pipeline.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "audit/division_audit.h"
#include "common/error.h"
#include "mec/cost_model.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace mecsched::dta {

std::string to_string(DtaStrategy s) {
  switch (s) {
    case DtaStrategy::kWorkload:
      return "DTA-Workload";
    case DtaStrategy::kWorkloadBytes:
      return "DTA-Workload(bytes)";
    case DtaStrategy::kNumber:
      return "DTA-Number";
  }
  return "unknown";
}

namespace {

// One partial task of a source task: device `executor` processes
// `bytes` of it (|C_executor ∩ items(source)| in bytes).
struct Portion {
  std::size_t executor = 0;
  double bytes = 0.0;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

}  // namespace

DtaResult run_dta(const SharedDataScenario& scenario, DtaOptions options) {
  static obs::Histogram& divide_seconds =
      obs::Registry::global().histogram("dta.divide.seconds");
  static obs::Histogram& rearrange_seconds =
      obs::Registry::global().histogram("dta.rearrange.seconds");
  static obs::Histogram& schedule_seconds =
      obs::Registry::global().histogram("dta.schedule.seconds");
  static obs::Histogram& coordinate_seconds =
      obs::Registry::global().histogram("dta.coordinate.seconds");
  scenario.validate();
  DtaResult result;

  {
    const obs::ScopedTimer span(divide_seconds, "dta.divide", "dta");
    const ItemSet needed = scenario.required_items();
    switch (options.strategy) {
      case DtaStrategy::kWorkload:
        result.coverage = divide_balanced(needed, scenario.ownership);
        break;
      case DtaStrategy::kWorkloadBytes:
        result.coverage = divide_balanced_bytes(needed, scenario.ownership,
                                                scenario.universe);
        break;
      case DtaStrategy::kNumber:
        result.coverage = divide_min_devices(needed, scenario.ownership);
        break;
    }
  }
  result.involved_devices = result.coverage.involved_devices();

  const mec::Topology& topo = scenario.topology;
  const mec::CostModel cost(topo);
  const std::size_t num_tasks = scenario.tasks.size();

  // ---- Step 2: rearrangement. One new local-only task per (device with a
  // share, original task touching that share). `by_task` holds them
  // grouped by source, devices ascending within a task (task s owns
  // by_task[task_begin[s] .. task_begin[s+1])); the rearranged tasks take
  // the same set device-major, source-minor, and source[i] names the
  // source task of rearranged task i.
  std::vector<Portion> by_task;
  std::vector<std::size_t> task_begin(num_tasks + 1, 0);
  std::vector<double> task_bytes(num_tasks);  // total_bytes(src.items)
  std::vector<std::size_t> source;
  {
    const obs::ScopedTimer span(rearrange_seconds, "dta.rearrange", "dta");
    std::vector<std::size_t> owner(scenario.universe.num_items(), kNone);
    for (std::size_t dev = 0; dev < topo.num_devices(); ++dev) {
      for (const std::size_t r : result.coverage.assigned[dev]) owner[r] = dev;
    }
    // Bytes per owning device, added in ascending item order: the same
    // additions, in the same order, as total_bytes(C_dev ∩ items).
    std::vector<double> held_bytes(topo.num_devices(), 0.0);
    std::vector<std::size_t> touched_by(topo.num_devices(), kNone);
    std::vector<std::size_t> touched;
    // A task has at most one partial per item: one block, no regrowth.
    std::size_t item_refs = 0;
    for (const DivisibleTask& src : scenario.tasks) {
      item_refs += src.items.size();
    }
    by_task.reserve(item_refs);
    for (std::size_t s = 0; s < num_tasks; ++s) {
      const DivisibleTask& src = scenario.tasks[s];
      task_bytes[s] = scenario.universe.total_bytes(src.items);
      touched.clear();
      for (const std::size_t r : src.items) {
        const std::size_t dev = owner[r];
        if (dev == kNone) continue;
        if (touched_by[dev] != s) {
          touched_by[dev] = s;
          touched.push_back(dev);
        }
        held_bytes[dev] += scenario.universe.item_size(r);
      }
      std::sort(touched.begin(), touched.end());
      for (const std::size_t dev : touched) {
        by_task.push_back({dev, held_bytes[dev]});
        held_bytes[dev] = 0.0;
      }
      task_begin[s + 1] = by_task.size();
    }

    // A stable counting sort by executor places each partial task and
    // gives it its per-device index.
    std::vector<std::size_t> first(topo.num_devices() + 1, 0);
    for (const Portion& p : by_task) ++first[p.executor + 1];
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    result.rearranged.resize(by_task.size());
    source.resize(by_task.size());
    for (std::size_t s = 0; s < num_tasks; ++s) {
      const DivisibleTask& src = scenario.tasks[s];
      for (std::size_t k = task_begin[s]; k < task_begin[s + 1]; ++k) {
        const Portion& p = by_task[k];
        const std::size_t i = next[p.executor]++;
        source[i] = s;
        mec::Task& t = result.rearranged[i];
        t.id = {p.executor, i - first[p.executor]};
        t.local_bytes = p.bytes;  // by construction the executor owns it all
        t.external_bytes = 0.0;
        t.external_owner = p.executor;
        t.cycles_per_byte = src.cycles_per_byte;
        t.result_kind = src.result_kind;
        t.result_ratio = src.result_ratio;
        t.result_const_bytes = src.result_const_bytes;
        // Resource demand scales with the data fraction actually processed.
        t.resource = task_bytes[s] > 0.0
                         ? src.resource * p.bytes / task_bytes[s]
                         : src.resource;
        t.deadline_s = src.deadline_s;
      }
    }
  }

  // Division certificate (no-op at audit level off): the coverage must be
  // an ownership-respecting exact partition of the needed data, and the
  // rearranged tasks must re-derive from it.
  audit::check_division(scenario, result.coverage, result.rearranged,
                        to_string(options.strategy));

  // ---- Step 3: schedule the rearranged tasks; the instance reads them
  // where the result holds them.
  std::optional<obs::ScopedTimer> step_span;
  step_span.emplace(schedule_seconds, "dta.schedule", "dta");
  const std::vector<mec::Task>& partials = result.rearranged;
  const assign::HtaInstance instance(topo, partials);
  if (options.scheduler == PartialScheduler::kLpHta) {
    result.assignment = assign::LpHta(options.lp).assign(instance);
  } else {
    result.assignment = assign::LocalFirst().assign(instance);
  }
  const assign::Metrics metrics = assign::evaluate(instance, result.assignment);
  result.compute_energy_j = metrics.total_energy_j;
  result.partials_cancelled = metrics.cancelled;
  result.partials_deadline_violations = metrics.deadline_violations;
  // The coordination span runs to the end: coordination and makespan.
  step_span.emplace(coordinate_seconds, "dta.coordinate", "dta");

  // ---- Step 4: coordination — descriptor distribution, partial-result
  // uploads, and the final aggregated download per original task.
  double coordination = 0.0;

  // Descriptors: issuer uploads op once; each (other) involved executor
  // downloads it; one backhaul hop per remote cluster involved.
  std::vector<std::size_t> cluster_seen(topo.num_base_stations(), kNone);
  for (std::size_t s = 0; s < num_tasks; ++s) {
    const DivisibleTask& src = scenario.tasks[s];
    const std::span<const Portion> executors(
        by_task.data() + task_begin[s], task_begin[s + 1] - task_begin[s]);
    if (executors.empty()) continue;
    const bool only_self =
        executors.size() == 1 && executors.front().executor == src.id.user;
    if (!only_self) {
      coordination += cost.upload_energy(src.id.user, src.op_bytes);
      for (const Portion& p : executors) {
        if (p.executor == src.id.user) continue;
        coordination += cost.download_energy(p.executor, src.op_bytes);
      }
      const std::size_t home = topo.device(src.id.user).base_station;
      for (const Portion& p : executors) {
        const std::size_t c = topo.device(p.executor).base_station;
        if (cluster_seen[c] == s) continue;
        cluster_seen[c] = s;
        if (c != home) coordination += cost.bs_to_bs_energy(src.op_bytes);
      }
    }
  }

  // Partial results and aggregation legs.
  double upload_tail = 0.0;  // slowest partial-result upload
  const std::size_t num_partials = partials.size();
  for (std::size_t i = 0; i < num_partials; ++i) {
    const mec::Task& t = partials[i];
    const DivisibleTask& src = scenario.tasks[source[i]];
    if (result.assignment.decisions[i] != assign::Decision::kLocal) {
      // Edge/cloud placements already include the result's return leg in
      // their Sec. II cost; nothing extra to add here.
      continue;
    }
    const double partial_result = src.result_bytes(t.local_bytes);
    if (t.id.user == src.id.user && num_partials == 1) continue;
    coordination += cost.upload_energy(t.id.user, partial_result);
    upload_tail =
        std::max(upload_tail, cost.upload_seconds(t.id.user, partial_result));
    if (!topo.same_cluster(t.id.user, src.id.user)) {
      coordination += cost.bs_to_bs_energy(partial_result);
    }
  }
  // Final result download by each issuer.
  double final_download_s = 0.0;
  for (std::size_t s = 0; s < num_tasks; ++s) {
    const DivisibleTask& src = scenario.tasks[s];
    const double final_bytes = src.result_bytes(task_bytes[s]);
    coordination += cost.download_energy(src.id.user, final_bytes);
    final_download_s =
        std::max(final_download_s, cost.download_seconds(src.id.user, final_bytes));
  }

  result.coordination_energy_j = coordination;
  result.total_energy_j = result.compute_energy_j + coordination;

  // ---- Makespan: executors run their queues sequentially (devices and
  // stations); the cloud is width-unbounded.
  std::vector<double> device_busy(topo.num_devices(), 0.0);
  std::vector<double> station_busy(topo.num_base_stations(), 0.0);
  double cloud_max = 0.0;
  for (std::size_t i = 0; i < num_partials; ++i) {
    const assign::Decision d = result.assignment.decisions[i];
    if (d == assign::Decision::kCancelled) continue;
    const double latency = instance.latency(i, assign::to_placement(d));
    const mec::Task& t = partials[i];
    switch (d) {
      case assign::Decision::kLocal:
        device_busy[t.id.user] += latency;
        break;
      case assign::Decision::kEdge:
        station_busy[topo.device(t.id.user).base_station] += latency;
        break;
      case assign::Decision::kCloud:
        cloud_max = std::max(cloud_max, latency);
        break;
      case assign::Decision::kCancelled:
        break;
    }
  }
  double busy_max = cloud_max;
  for (double b : device_busy) busy_max = std::max(busy_max, b);
  for (double b : station_busy) busy_max = std::max(busy_max, b);
  result.processing_time_s = busy_max + upload_tail + final_download_s;
  return result;
}

std::vector<mec::Task> to_holistic_tasks(const SharedDataScenario& scenario) {
  scenario.validate();
  const std::size_t devices = scenario.topology.num_devices();
  // Over the ids 0..|D|-1, so an item's position is its id.
  ItemSet all(scenario.universe.num_items());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const OwnerIndex index(all, scenario.ownership);

  std::vector<mec::Task> out;
  out.reserve(scenario.tasks.size());
  std::vector<std::size_t> per_user(devices, 0);
  // External bytes each device holds for the current task, added in
  // ascending item order as total_bytes(external ∩ D_dev) would.
  std::vector<double> owned(devices, 0.0);

  for (const DivisibleTask& src : scenario.tasks) {
    mec::Task t;
    t.id = {src.id.user, per_user[src.id.user]++};
    bool has_external = false;
    for (const std::size_t r : src.items) {
      const double size = scenario.universe.item_size(r);
      const std::span<const std::size_t> owners = index.owners(r);
      if (std::binary_search(owners.begin(), owners.end(), src.id.user)) {
        t.local_bytes += size;
        continue;
      }
      has_external = true;
      t.external_bytes += size;
      for (const std::size_t dev : owners) owned[dev] += size;
    }
    // L_ij: the single device holding the most of the external data (the
    // holistic model has one owner; ties break to the lowest id).
    t.external_owner = src.id.user;
    if (has_external) {
      double best_bytes = -1.0;
      for (std::size_t dev = 0; dev < devices; ++dev) {
        if (dev == src.id.user) continue;
        if (owned[dev] > best_bytes) {
          best_bytes = owned[dev];
          t.external_owner = dev;
        }
        owned[dev] = 0.0;
      }
    }
    t.cycles_per_byte = src.cycles_per_byte;
    t.result_kind = src.result_kind;
    t.result_ratio = src.result_ratio;
    t.result_const_bytes = src.result_const_bytes;
    t.resource = src.resource;
    t.deadline_s = src.deadline_s;
    out.push_back(t);
  }
  return out;
}

}  // namespace mecsched::dta
