// Differential test of the indexed DTA code against the quadratic
// set-algebra implementation it replaced, kept below as the reference:
// the three divisions and greedy_set_cover (pick order and coverage),
// required_items, to_holistic_tasks and the whole run_dta pipeline
// (rearrangement, scheduling, descriptor coordination, aggregation).
// Every output must match exactly; doubles are compared with ==.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "assign/baselines.h"
#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "common/error.h"
#include "dta/coverage.h"
#include "dta/pipeline.h"
#include "dta/set_cover.h"
#include "mec/cost_model.h"
#include "set_cover_oracles.h"
#include "mec/topology.h"
#include "workload/shared_data.h"

namespace mecsched::dta {
namespace {

// ---- The reference: one set_intersect per (device, round) in the
// divisions and per (device, task) in the rearrangement.
namespace ref {

struct Division {
  std::vector<std::size_t> picks;
  Coverage coverage;
};

Division balanced(const ItemSet& needed, const std::vector<ItemSet>& ownership,
                  const DataUniverse* universe) {
  const std::size_t n = ownership.size();
  Division out;
  out.coverage.assigned.assign(n, {});
  ItemSet remaining = needed;
  std::vector<bool> used(n, false);
  while (!remaining.empty()) {
    std::size_t best = n;
    double best_size = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const ItemSet inter = set_intersect(ownership[i], remaining);
      if (inter.empty()) continue;
      const double size = universe != nullptr
                              ? universe->total_bytes(inter)
                              : static_cast<double>(inter.size());
      if (best == n || size < best_size) {
        best = i;
        best_size = size;
      }
    }
    if (best == n) throw ModelError("reference: item owned by no device");
    out.coverage.assigned[best] = set_intersect(ownership[best], remaining);
    remaining = set_minus(remaining, out.coverage.assigned[best]);
    used[best] = true;
    out.picks.push_back(best);
  }
  return out;
}

std::vector<std::size_t> greedy_set_cover(const ItemSet& universe,
                                          const std::vector<ItemSet>& sets) {
  std::vector<std::size_t> chosen;
  ItemSet remaining = universe;
  while (!remaining.empty()) {
    std::size_t best = sets.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::size_t gain = set_intersect(sets[i], remaining).size();
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == sets.size()) throw ModelError("reference: not coverable");
    chosen.push_back(best);
    remaining = set_minus(remaining, sets[best]);
  }
  return chosen;
}

Division min_devices(const ItemSet& needed,
                     const std::vector<ItemSet>& ownership) {
  Division out;
  out.coverage.assigned.assign(ownership.size(), {});
  out.picks = greedy_set_cover(needed, ownership);
  ItemSet remaining = needed;
  for (std::size_t i : out.picks) {
    out.coverage.assigned[i] = set_intersect(ownership[i], remaining);
    remaining = set_minus(remaining, out.coverage.assigned[i]);
  }
  return out;
}

ItemSet required_items(const SharedDataScenario& scenario) {
  ItemSet d;
  for (const DivisibleTask& t : scenario.tasks) d = set_union(d, t.items);
  return d;
}

Coverage divide(const SharedDataScenario& scenario, DtaStrategy strategy) {
  const ItemSet needed = required_items(scenario);
  switch (strategy) {
    case DtaStrategy::kWorkload:
      return balanced(needed, scenario.ownership, nullptr).coverage;
    case DtaStrategy::kWorkloadBytes:
      return balanced(needed, scenario.ownership, &scenario.universe).coverage;
    case DtaStrategy::kNumber:
      return min_devices(needed, scenario.ownership).coverage;
  }
  return {};
}

struct PartialTask {
  std::size_t source = 0;
  std::size_t executor = 0;
  double bytes = 0.0;
};

DtaResult run_dta(const SharedDataScenario& scenario, DtaOptions options) {
  DtaResult result;
  result.coverage = divide(scenario, options.strategy);
  result.involved_devices = result.coverage.involved_devices();
  const mec::Topology& topo = scenario.topology;
  const mec::CostModel cost(topo);

  std::vector<PartialTask> partials;
  std::vector<std::size_t> per_device_index(topo.num_devices(), 0);
  for (std::size_t dev = 0; dev < topo.num_devices(); ++dev) {
    const ItemSet& share = result.coverage.assigned[dev];
    if (share.empty()) continue;
    for (std::size_t s = 0; s < scenario.tasks.size(); ++s) {
      const ItemSet portion = set_intersect(share, scenario.tasks[s].items);
      if (portion.empty()) continue;
      partials.push_back({s, dev, scenario.universe.total_bytes(portion)});
    }
  }
  for (const PartialTask& pt : partials) {
    const DivisibleTask& src = scenario.tasks[pt.source];
    const double total_bytes = scenario.universe.total_bytes(src.items);
    mec::Task t;
    t.id = {pt.executor, per_device_index[pt.executor]++};
    t.local_bytes = pt.bytes;
    t.external_bytes = 0.0;
    t.external_owner = pt.executor;
    t.cycles_per_byte = src.cycles_per_byte;
    t.result_kind = src.result_kind;
    t.result_ratio = src.result_ratio;
    t.result_const_bytes = src.result_const_bytes;
    t.resource = total_bytes > 0.0 ? src.resource * pt.bytes / total_bytes
                                   : src.resource;
    t.deadline_s = src.deadline_s;
    result.rearranged.push_back(t);
  }

  const assign::HtaInstance instance(topo, result.rearranged);
  if (options.scheduler == PartialScheduler::kLpHta) {
    result.assignment = assign::LpHta(options.lp).assign(instance);
  } else {
    result.assignment = assign::LocalFirst().assign(instance);
  }
  const assign::Metrics metrics = assign::evaluate(instance, result.assignment);
  result.compute_energy_j = metrics.total_energy_j;
  result.partials_cancelled = metrics.cancelled;
  result.partials_deadline_violations = metrics.deadline_violations;

  double coordination = 0.0;
  for (std::size_t s = 0; s < scenario.tasks.size(); ++s) {
    const DivisibleTask& src = scenario.tasks[s];
    std::set<std::size_t> executors;
    std::set<std::size_t> clusters;
    for (const PartialTask& pt : partials) {
      if (pt.source != s) continue;
      executors.insert(pt.executor);
      clusters.insert(topo.device(pt.executor).base_station);
    }
    if (executors.empty()) continue;
    const bool only_self =
        executors.size() == 1 && *executors.begin() == src.id.user;
    if (!only_self) {
      coordination += cost.upload_energy(src.id.user, src.op_bytes);
      for (std::size_t dev : executors) {
        if (dev == src.id.user) continue;
        coordination += cost.download_energy(dev, src.op_bytes);
      }
      const std::size_t home = topo.device(src.id.user).base_station;
      for (std::size_t c : clusters) {
        if (c != home) coordination += cost.bs_to_bs_energy(src.op_bytes);
      }
    }
  }
  std::vector<double> partial_upload_s;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    const PartialTask& pt = partials[i];
    const DivisibleTask& src = scenario.tasks[pt.source];
    if (result.assignment.decisions[i] != assign::Decision::kLocal) continue;
    const double partial_result = src.result_bytes(pt.bytes);
    if (pt.executor == src.id.user && partials.size() == 1) continue;
    coordination += cost.upload_energy(pt.executor, partial_result);
    partial_upload_s.push_back(cost.upload_seconds(pt.executor, partial_result));
    if (!topo.same_cluster(pt.executor, src.id.user)) {
      coordination += cost.bs_to_bs_energy(partial_result);
    }
  }
  double final_download_s = 0.0;
  for (const DivisibleTask& src : scenario.tasks) {
    const double final_bytes =
        src.result_bytes(scenario.universe.total_bytes(src.items));
    coordination += cost.download_energy(src.id.user, final_bytes);
    final_download_s = std::max(final_download_s,
                                cost.download_seconds(src.id.user, final_bytes));
  }
  result.coordination_energy_j = coordination;
  result.total_energy_j = result.compute_energy_j + coordination;

  std::vector<double> device_busy(topo.num_devices(), 0.0);
  std::vector<double> station_busy(topo.num_base_stations(), 0.0);
  double cloud_max = 0.0;
  for (std::size_t i = 0; i < partials.size(); ++i) {
    const assign::Decision d = result.assignment.decisions[i];
    if (d == assign::Decision::kCancelled) continue;
    const double latency = instance.latency(i, assign::to_placement(d));
    const mec::Task& t = result.rearranged[i];
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
  double upload_tail = 0.0;
  for (double s : partial_upload_s) upload_tail = std::max(upload_tail, s);
  result.processing_time_s = busy_max + upload_tail + final_download_s;
  return result;
}

std::vector<mec::Task> to_holistic_tasks(const SharedDataScenario& scenario) {
  std::vector<mec::Task> out;
  std::vector<std::size_t> per_user(scenario.topology.num_devices(), 0);
  for (const DivisibleTask& src : scenario.tasks) {
    const ItemSet local =
        set_intersect(src.items, scenario.ownership[src.id.user]);
    const ItemSet external = set_minus(src.items, local);
    mec::Task t;
    t.id = {src.id.user, per_user[src.id.user]++};
    t.local_bytes = scenario.universe.total_bytes(local);
    t.external_bytes = scenario.universe.total_bytes(external);
    t.external_owner = src.id.user;
    if (!external.empty()) {
      double best_bytes = -1.0;
      for (std::size_t dev = 0; dev < scenario.topology.num_devices(); ++dev) {
        if (dev == src.id.user) continue;
        const double owned = scenario.universe.total_bytes(
            set_intersect(external, scenario.ownership[dev]));
        if (owned > best_bytes) {
          best_bytes = owned;
          t.external_owner = dev;
        }
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

}  // namespace ref

void expect_same_tasks(const std::vector<mec::Task>& got,
                       const std::vector<mec::Task>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].local_bytes, want[i].local_bytes);
    EXPECT_EQ(got[i].external_bytes, want[i].external_bytes);
    EXPECT_EQ(got[i].external_owner, want[i].external_owner);
    EXPECT_EQ(got[i].cycles_per_byte, want[i].cycles_per_byte);
    EXPECT_EQ(got[i].result_kind, want[i].result_kind);
    EXPECT_EQ(got[i].result_ratio, want[i].result_ratio);
    EXPECT_EQ(got[i].result_const_bytes, want[i].result_const_bytes);
    EXPECT_EQ(got[i].resource, want[i].resource);
    EXPECT_EQ(got[i].deadline_s, want[i].deadline_s);
  }
}

void expect_same_divisions(const ItemSet& needed,
                           const std::vector<ItemSet>& ownership,
                           const DataUniverse& universe) {
  const ref::Division bal = ref::balanced(needed, ownership, nullptr);
  EXPECT_EQ(greedy_cover(needed, ownership, GreedyRule::kFewest, "").picks,
            bal.picks);
  EXPECT_EQ(divide_balanced(needed, ownership).assigned,
            bal.coverage.assigned);

  const ref::Division bytes = ref::balanced(needed, ownership, &universe);
  EXPECT_EQ(greedy_cover(needed, ownership, GreedyRule::kLightest, "",
                         &universe)
                .picks,
            bytes.picks);
  EXPECT_EQ(divide_balanced_bytes(needed, ownership, universe).assigned,
            bytes.coverage.assigned);

  const ref::Division min = ref::min_devices(needed, ownership);
  EXPECT_EQ(greedy_set_cover(needed, ownership), min.picks);
  EXPECT_EQ(divide_min_devices(needed, ownership).assigned,
            min.coverage.assigned);
}

void expect_same_run(const SharedDataScenario& scenario, DtaOptions options) {
  SCOPED_TRACE(to_string(options.strategy));
  const DtaResult got = run_dta(scenario, options);
  const DtaResult want = ref::run_dta(scenario, options);
  EXPECT_EQ(got.coverage.assigned, want.coverage.assigned);
  expect_same_tasks(got.rearranged, want.rearranged);
  EXPECT_EQ(got.assignment.decisions, want.assignment.decisions);
  EXPECT_EQ(got.compute_energy_j, want.compute_energy_j);
  EXPECT_EQ(got.coordination_energy_j, want.coordination_energy_j);
  EXPECT_EQ(got.total_energy_j, want.total_energy_j);
  EXPECT_EQ(got.processing_time_s, want.processing_time_s);
  EXPECT_EQ(got.involved_devices, want.involved_devices);
  EXPECT_EQ(got.partials_cancelled, want.partials_cancelled);
  EXPECT_EQ(got.partials_deadline_violations,
            want.partials_deadline_violations);
}

void expect_same_everything(const SharedDataScenario& scenario,
                            PartialScheduler scheduler) {
  const ItemSet needed = scenario.required_items();
  EXPECT_EQ(needed, ref::required_items(scenario));
  expect_same_divisions(needed, scenario.ownership, scenario.universe);
  expect_same_tasks(to_holistic_tasks(scenario),
                    ref::to_holistic_tasks(scenario));
  for (const DtaStrategy strategy :
       {DtaStrategy::kWorkload, DtaStrategy::kWorkloadBytes,
        DtaStrategy::kNumber}) {
    DtaOptions options;
    options.strategy = strategy;
    options.scheduler = scheduler;
    expect_same_run(scenario, options);
  }
}

// Config k of 48: every block of 12 crosses max_extra_owners 0..5 with
// equal and spread item sizes; the blocks grow the task count from 1 to
// 90. Every third config sizes tasks to a single item, so one device owns
// all of a task's data.
class IndexedDivisionDiff : public ::testing::TestWithParam<int> {};

TEST_P(IndexedDivisionDiff, MatchesQuadraticReference) {
  const auto k = static_cast<std::size_t>(GetParam());
  workload::SharedDataConfig cfg;
  cfg.seed = 7000 + k;
  cfg.max_extra_owners = k % 6;
  cfg.item_size_spread = (k / 6) % 2 == 1 ? 4.0 : 0.0;
  cfg.num_tasks = std::vector<std::size_t>{1, 5, 30, 90}[k / 12];
  cfg.num_devices = 6 + (k * 7) % 20;
  cfg.num_base_stations = 1 + k % 4;
  cfg.num_items = 30 + (k * 13) % 120;
  cfg.max_input_kb = k % 3 == 0 ? cfg.item_kb : 1500.0;
  if (k % 5 == 0) cfg.result_kind = mec::ResultSizeKind::kConstant;
  SharedDataScenario scenario = workload::make_shared_scenario(cfg);

  // Even configs add a task issued by device 0 over (some of) its own
  // data: with a single owner per item its only partial is the issuer's.
  const ItemSet& own = scenario.ownership[0];
  if (k % 2 == 0 && !own.empty()) {
    DivisibleTask mine = scenario.tasks.front();
    mine.id = {0, 1000};
    mine.items.assign(own.begin(), own.begin() + std::min<std::ptrdiff_t>(
                                                     3, std::ssize(own)));
    scenario.tasks.push_back(mine);
  }

  expect_same_everything(scenario, PartialScheduler::kLocalGreedy);
  if (k % 4 == 1) expect_same_everything(scenario, PartialScheduler::kLpHta);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, IndexedDivisionDiff,
                         ::testing::Range(0, 48));

// Topologies wider than one 64-bit word of the rearrangement's device
// bitmap. Each boundary device (63/64, 127/128 and the last) is the only
// owner of one item, so every division hands it that item; one task needs
// all of those items, and one needs only the items of devices 128 and 129,
// so its touched words start past the first.
class IndexedDivisionWide : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexedDivisionWide, MatchesQuadraticReferenceAcrossWords) {
  const std::size_t n = GetParam();
  workload::SharedDataConfig cfg;
  cfg.seed = 7100 + n;
  cfg.num_devices = n;
  cfg.num_base_stations = 7;
  cfg.num_tasks = 40;
  cfg.num_items = 3 * n;
  cfg.item_size_spread = 4.0;
  SharedDataScenario scenario = workload::make_shared_scenario(cfg);

  std::vector<std::size_t> boundary;
  for (const std::size_t dev : {0, 62, 63, 64, 65, 126, 127, 128, 129}) {
    if (dev < n) boundary.push_back(dev);
  }
  boundary.push_back(n - 1);
  ItemSet all_boundary;
  ItemSet high_word;
  for (std::size_t j = 0; j < boundary.size(); ++j) {
    // Item j is held by boundary[j] alone.
    for (ItemSet& held : scenario.ownership) std::erase(held, j);
    scenario.ownership[boundary[j]] =
        set_union(scenario.ownership[boundary[j]], ItemSet{j});
    all_boundary.push_back(j);
    if (boundary[j] == 128 || boundary[j] == 129) high_word.push_back(j);
  }
  DivisibleTask spans = scenario.tasks.front();
  spans.id = {n - 1, 1000};
  spans.items = set_union(spans.items, all_boundary);
  scenario.tasks.push_back(spans);
  if (!high_word.empty()) {
    DivisibleTask high = scenario.tasks.front();
    high.id = {0, 1000};
    high.items = high_word;
    scenario.tasks.push_back(high);
  }

  expect_same_everything(scenario, PartialScheduler::kLocalGreedy);
  DtaOptions options;
  options.scheduler = PartialScheduler::kLocalGreedy;
  const DtaResult run = run_dta(scenario, options);
  for (const std::size_t dev : boundary) {
    EXPECT_TRUE(std::ranges::any_of(
        run.rearranged, [&](const mec::Task& t) { return t.id.user == dev; }))
        << "no partial on device " << dev;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WideTopologies, IndexedDivisionWide,
    ::testing::Values(std::size_t{64}, std::size_t{65}, std::size_t{130},
                      std::size_t{200}),
    [](const ::testing::TestParamInfo<std::size_t>& param) {
      return "Devices" + std::to_string(param.param);
    });

// ---- Hand-built ties and orders.

TEST(IndexedDivisionHandBuiltTest, EqualCountsGoToTheLowestDevice) {
  const std::vector<ItemSet> own = {{0, 1}, {2, 3}, {1, 2}};
  const ItemSet needed = {0, 1, 2, 3};
  const DataUniverse universe(std::vector<double>(4, 1.0));
  expect_same_divisions(needed, own, universe);
  // All three hold two items: device 0 first; then device 2 holds one.
  EXPECT_EQ(greedy_cover(needed, own, GreedyRule::kFewest, "").picks,
            (std::vector<std::size_t>{0, 2, 1}));
}

TEST(IndexedDivisionHandBuiltTest, EqualGainsGoToTheLowestSet) {
  const std::vector<ItemSet> own = {{1, 2}, {3, 4}, {2, 3}, {1, 4}};
  const ItemSet needed = {1, 2, 3, 4};
  const DataUniverse universe(std::vector<double>(5, 1.0));
  expect_same_divisions(needed, own, universe);
  EXPECT_EQ(greedy_set_cover(needed, own), (std::vector<std::size_t>{0, 1}));
}

TEST(IndexedDivisionHandBuiltTest, EqualBytesAreResummedNotDecremented) {
  // Device 2 goes first (0.1 bytes). Devices 0 and 1 then both hold
  // 0.2 + 0.3 == 0.5 bytes, so device 0 wins the tie; 0.1 + 0.2 + 0.3 - 0.1
  // would read 0.5000000000000001 and hand the tie to device 1.
  const std::vector<ItemSet> own = {{0, 1, 2}, {1, 2}, {0}};
  const ItemSet needed = {0, 1, 2};
  const DataUniverse universe({0.1, 0.2, 0.3});
  expect_same_divisions(needed, own, universe);
  const Coverage c = divide_balanced_bytes(needed, own, universe);
  EXPECT_EQ(c.assigned[2], (ItemSet{0}));
  EXPECT_EQ(c.assigned[0], (ItemSet{1, 2}));
  EXPECT_TRUE(c.assigned[1].empty());
}

TEST(IndexedDivisionHandBuiltTest, EqualVolumesAcrossDifferentCounts) {
  // Device 0 holds two small items, device 1 one large one: same bytes.
  const std::vector<ItemSet> own = {{0, 1}, {2}};
  const ItemSet needed = {0, 1, 2};
  const DataUniverse universe({1.0, 2.0, 3.0});
  expect_same_divisions(needed, own, universe);
  EXPECT_EQ(
      greedy_cover(needed, own, GreedyRule::kLightest, "", &universe).picks,
      (std::vector<std::size_t>{0, 1}));
}

TEST(IndexedDivisionHandBuiltTest, UncoverableItemsThrow) {
  const DataUniverse universe(std::vector<double>(10, 1.0));
  for (const GreedyRule rule :
       {GreedyRule::kFewest, GreedyRule::kMost, GreedyRule::kLightest}) {
    EXPECT_THROW(greedy_cover({0, 9}, {{0}, {1}}, rule, "x", &universe),
                 ModelError);
  }
}

SharedDataScenario tie_scenario() {
  workload::SharedDataConfig cfg;
  cfg.num_devices = 4;
  cfg.num_base_stations = 2;
  cfg.num_tasks = 1;
  cfg.num_items = 6;
  SharedDataScenario s = workload::make_shared_scenario(cfg);
  s.universe = DataUniverse({1.0, 1.0, 2.0, 0.0, 0.0, 1.0});
  s.ownership = {{0}, {1, 2}, {1, 2, 3}, {3, 4, 5}};
  return s;
}

TEST(IndexedDivisionHandBuiltTest, HolisticOwnerTiesGoToTheLowestDevice) {
  SharedDataScenario s = tie_scenario();
  // Issuer 0 owns item 0; devices 1 and 2 both hold items 1 and 2.
  s.tasks.front().id = {0, 0};
  s.tasks.front().items = {0, 1, 2};
  // Issuers 1 and 0 need only zero-byte items others hold: every other
  // device holds 0 bytes of them, so the lowest id but the issuer's wins.
  DivisibleTask zero = s.tasks.front();
  zero.id = {1, 0};
  zero.items = {3};
  s.tasks.push_back(zero);
  DivisibleTask none = s.tasks.front();
  none.id = {0, 1};
  none.items = {3, 4};
  s.tasks.push_back(none);

  const std::vector<mec::Task> got = to_holistic_tasks(s);
  expect_same_tasks(got, ref::to_holistic_tasks(s));
  EXPECT_EQ(got[0].external_owner, 1u);
  EXPECT_EQ(got[1].external_owner, 0u);
  EXPECT_EQ(got[2].external_owner, 1u);
  for (const DtaStrategy strategy :
       {DtaStrategy::kWorkload, DtaStrategy::kWorkloadBytes,
        DtaStrategy::kNumber}) {
    DtaOptions options;
    options.strategy = strategy;
    options.scheduler = PartialScheduler::kLocalGreedy;
    expect_same_run(s, options);
  }
}

TEST(IndexedDivisionHandBuiltTest, LonePartialOnTheIssuer) {
  // Device 0 alone holds item 0: one partial in all, on the issuer.
  SharedDataScenario s = tie_scenario();
  s.tasks.front().id = {0, 0};
  s.tasks.front().items = {0};
  for (const DtaStrategy strategy :
       {DtaStrategy::kWorkload, DtaStrategy::kWorkloadBytes,
        DtaStrategy::kNumber}) {
    DtaOptions options;
    options.strategy = strategy;
    options.scheduler = PartialScheduler::kLocalGreedy;
    expect_same_run(s, options);
    EXPECT_EQ(run_dta(s, options).rearranged.size(), 1u);
  }
}

TEST(IndexedDivisionHandBuiltTest, DescriptorsAreChargedInAscendingDeviceOrder) {
  // One task whose items are held, in item order, by devices 3, 1 and 2.
  // With 1-byte descriptors over 8 b/s links every energy is its power:
  // 0.1 + 0.2 + 0.3 + 0.001 != 0.1 + 0.001 + 0.2 + 0.3 in binary
  // floating point, so charging in first-touch order shows.
  workload::SharedDataConfig cfg;
  cfg.num_devices = 4;
  cfg.num_base_stations = 1;
  cfg.num_tasks = 1;
  cfg.num_items = 4;
  SharedDataScenario s = workload::make_shared_scenario(cfg);
  const std::vector<double> tx = {0.1, 1.0, 1.0, 1.0};
  const std::vector<double> rx = {1.0, 0.2, 0.3, 0.001};
  std::vector<mec::Device> devices;
  for (std::size_t i = 0; i < 4; ++i) {
    devices.push_back(s.topology.device(i));
    devices.back().radio = {8.0, 8.0, tx[i], rx[i]};
  }
  s.topology = mec::Topology(std::move(devices), {s.topology.base_station(0)},
                             s.topology.params());
  s.universe = DataUniverse(std::vector<double>(4, 1.0));
  s.ownership = {{3}, {1}, {2}, {0}};
  s.tasks.front().id = {0, 0};
  s.tasks.front().items = {0, 1, 2};
  s.tasks.front().op_bytes = 1.0;
  DtaOptions options;
  options.scheduler = PartialScheduler::kLocalGreedy;
  expect_same_run(s, options);
}

}  // namespace
}  // namespace mecsched::dta
