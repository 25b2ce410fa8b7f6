#include "dta/pipeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "assign/evaluator.h"
#include "assign/hta_instance.h"
#include "workload/shared_data.h"

namespace mecsched::dta {
namespace {

workload::SharedDataConfig small_config(std::uint64_t seed) {
  workload::SharedDataConfig cfg;
  cfg.seed = seed;
  cfg.num_devices = 12;
  cfg.num_base_stations = 3;
  cfg.num_tasks = 20;
  cfg.num_items = 80;
  cfg.max_input_kb = 1500.0;
  return cfg;
}

TEST(DtaPipelineTest, ProducesValidCoverage) {
  const auto scenario = workload::make_shared_scenario(small_config(1));
  for (DtaStrategy s : {DtaStrategy::kWorkload, DtaStrategy::kNumber}) {
    const DtaResult r = run_dta(scenario, DtaOptions{s});
    EXPECT_TRUE(is_valid_coverage(r.coverage, scenario.required_items(),
                                  scenario.ownership))
        << to_string(s);
    EXPECT_EQ(r.involved_devices, r.coverage.involved_devices());
  }
}

TEST(DtaPipelineTest, RearrangedTasksAreLocalOnly) {
  const auto scenario = workload::make_shared_scenario(small_config(2));
  const DtaResult r = run_dta(scenario);
  EXPECT_FALSE(r.rearranged.empty());
  for (const mec::Task& t : r.rearranged) {
    EXPECT_DOUBLE_EQ(t.external_bytes, 0.0);
    EXPECT_GT(t.local_bytes, 0.0);
  }
}

TEST(DtaPipelineTest, RearrangedBytesCoverEveryTasksData) {
  const auto scenario = workload::make_shared_scenario(small_config(3));
  const DtaResult r = run_dta(scenario);
  // Summed over partials, each original task's full input is processed
  // exactly once (disjoint coverage).
  double rearranged_bytes = 0.0;
  for (const mec::Task& t : r.rearranged) rearranged_bytes += t.local_bytes;
  double original_bytes = 0.0;
  for (const DivisibleTask& t : scenario.tasks) {
    original_bytes += scenario.universe.total_bytes(t.items);
  }
  EXPECT_NEAR(rearranged_bytes, original_bytes, 1e-6);
}

TEST(DtaPipelineTest, EnergyDecomposes) {
  const auto scenario = workload::make_shared_scenario(small_config(4));
  const DtaResult r = run_dta(scenario);
  EXPECT_NEAR(r.total_energy_j, r.compute_energy_j + r.coordination_energy_j,
              1e-9);
  EXPECT_GT(r.compute_energy_j, 0.0);
  EXPECT_GT(r.coordination_energy_j, 0.0);
  EXPECT_GT(r.processing_time_s, 0.0);
}

TEST(DtaPipelineTest, BeatsHolisticLpHtaOnEnergy) {
  // Fig. 5(a)'s core claim: with η = 0.2, avoiding raw-data transfer wins.
  double dta_w = 0.0, dta_n = 0.0, holistic = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto scenario = workload::make_shared_scenario(small_config(seed));
    dta_w += run_dta(scenario, DtaOptions{DtaStrategy::kWorkload}).total_energy_j;
    dta_n += run_dta(scenario, DtaOptions{DtaStrategy::kNumber}).total_energy_j;

    const std::vector<mec::Task> tasks = to_holistic_tasks(scenario);
    const assign::HtaInstance inst(scenario.topology, tasks);
    const auto a = assign::LpHta().assign(inst);
    holistic += assign::evaluate(inst, a).total_energy_j;
  }
  EXPECT_LT(dta_w, holistic);
  EXPECT_LT(dta_n, holistic);
}

TEST(DtaPipelineTest, WorkloadFasterNumberLeaner) {
  // Fig. 6's two shapes, averaged over seeds.
  double time_w = 0.0, time_n = 0.0;
  double dev_w = 0.0, dev_n = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto cfg = small_config(seed);
    cfg.num_tasks = 30;
    const auto scenario = workload::make_shared_scenario(cfg);
    const DtaResult w = run_dta(scenario, DtaOptions{DtaStrategy::kWorkload});
    const DtaResult n = run_dta(scenario, DtaOptions{DtaStrategy::kNumber});
    time_w += w.processing_time_s;
    time_n += n.processing_time_s;
    dev_w += static_cast<double>(w.involved_devices);
    dev_n += static_cast<double>(n.involved_devices);
  }
  EXPECT_LT(time_w, time_n);  // balanced shares -> shorter makespan
  EXPECT_LT(dev_n, dev_w);    // set cover -> fewer devices
}

TEST(ToHolisticTest, PreservesTaskVolume) {
  const auto scenario = workload::make_shared_scenario(small_config(6));
  const auto tasks = to_holistic_tasks(scenario);
  ASSERT_EQ(tasks.size(), scenario.tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double expect =
        scenario.universe.total_bytes(scenario.tasks[i].items);
    EXPECT_NEAR(tasks[i].input_bytes(), expect, 1e-6);
    EXPECT_EQ(tasks[i].id.user, scenario.tasks[i].id.user);
    // α must be exactly the issuer-owned bytes
    const ItemSet local = set_intersect(
        scenario.tasks[i].items, scenario.ownership[tasks[i].id.user]);
    EXPECT_NEAR(tasks[i].local_bytes, scenario.universe.total_bytes(local),
                1e-6);
  }
}

TEST(ToHolisticTest, ExternalOwnerOwnsSomeExternalData) {
  const auto scenario = workload::make_shared_scenario(small_config(7));
  const auto tasks = to_holistic_tasks(scenario);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].external_bytes <= 0.0) continue;
    const ItemSet external = set_minus(
        scenario.tasks[i].items,
        scenario.ownership[scenario.tasks[i].id.user]);
    const ItemSet held = set_intersect(
        external, scenario.ownership[tasks[i].external_owner]);
    EXPECT_FALSE(held.empty()) << "task " << i;
  }
}

TEST(DtaPipelineTest, DescriptorSizeFeedsCoordinationEnergy) {
  auto cfg = small_config(8);
  cfg.op_kb = 0.1;
  const DtaResult cheap = run_dta(workload::make_shared_scenario(cfg));
  cfg.op_kb = 50.0;  // bulky task descriptors
  const DtaResult bulky = run_dta(workload::make_shared_scenario(cfg));
  EXPECT_LT(cheap.coordination_energy_j, bulky.coordination_energy_j);
  // compute energy is descriptor-independent
  EXPECT_NEAR(cheap.compute_energy_j, bulky.compute_energy_j,
              1e-6 * (1.0 + cheap.compute_energy_j));
}

TEST(DtaPipelineTest, GenerousDeadlinesLeaveNoPartialUnsatisfied) {
  auto cfg = small_config(9);
  cfg.deadline_s = 1e6;
  const DtaResult r = run_dta(workload::make_shared_scenario(cfg));
  EXPECT_EQ(r.partials_cancelled, 0u);
  EXPECT_EQ(r.partials_deadline_violations, 0u);
  // The partial unsatisfied rate, over the rearranged tasks.
  ASSERT_FALSE(r.rearranged.empty());
  EXPECT_DOUBLE_EQ(static_cast<double>(r.partials_cancelled +
                                       r.partials_deadline_violations) /
                       static_cast<double>(r.rearranged.size()),
                   0.0);
}

// Order-sensitive FNV-1a over 64-bit words; doubles go in as their exact
// bit patterns, so any last-bit drift in an output changes the digest.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 64; b += 8) {
      h_ = (h_ ^ ((word >> b) & 0xffu)) * 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_result(Digest& d, const DtaResult& r) {
  for (const ItemSet& share : r.coverage.assigned) {
    d.add(std::uint64_t{share.size()});
    for (const std::size_t item : share) d.add(std::uint64_t{item});
  }
  d.add(std::uint64_t{r.rearranged.size()});
  for (const mec::Task& t : r.rearranged) {
    d.add(std::uint64_t{t.id.user});
    d.add(std::uint64_t{t.id.index});
    d.add(t.local_bytes);
    d.add(t.external_bytes);
    d.add(std::uint64_t{t.external_owner});
    d.add(t.cycles_per_byte);
    d.add(static_cast<std::uint64_t>(t.result_kind));
    d.add(t.result_ratio);
    d.add(t.result_const_bytes);
    d.add(t.resource);
    d.add(t.deadline_s);
  }
  for (const assign::Decision dec : r.assignment.decisions) {
    d.add(static_cast<std::uint64_t>(dec));
  }
  d.add(r.total_energy_j);
  d.add(r.coordination_energy_j);
  d.add(r.processing_time_s);
}

// Pins every output of run_dta, bit for bit, on the Fig. 5(a) sweep's
// scenarios (both divisions, local-greedy partial scheduling) and on one
// small LP-HTA-scheduled case. A change that moves any coverage item,
// rearranged task field, decision or energy/time double by one ulp
// changes the digest; update the pin only for a deliberate output change.
TEST(DtaPipelineTest, OutputsArePinned) {
  Digest d;
  for (std::size_t tasks = 100; tasks <= 450; tasks += 50) {
    for (std::uint64_t rep = 1; rep <= 3; ++rep) {
      workload::SharedDataConfig cfg;
      cfg.num_devices = 50;
      cfg.num_base_stations = 5;
      cfg.num_tasks = tasks;
      cfg.num_items = 600;
      cfg.max_extra_owners = 5;
      cfg.max_input_kb = 3000.0;
      cfg.seed = rep * 1000 + tasks;
      const auto scenario = workload::make_shared_scenario(cfg);
      for (const DtaStrategy strategy :
           {DtaStrategy::kWorkload, DtaStrategy::kNumber}) {
        DtaOptions opts;
        opts.strategy = strategy;
        opts.scheduler = PartialScheduler::kLocalGreedy;
        add_result(d, run_dta(scenario, opts));
      }
    }
  }
  add_result(d, run_dta(workload::make_shared_scenario(small_config(11)),
                        DtaOptions{DtaStrategy::kWorkload,
                                   PartialScheduler::kLpHta}));
  EXPECT_EQ(d.value(), 0x569b661a2b2fd08dull) << std::hex << d.value();
}

TEST(DtaStrategyTest, Names) {
  EXPECT_EQ(to_string(DtaStrategy::kWorkload), "DTA-Workload");
  EXPECT_EQ(to_string(DtaStrategy::kNumber), "DTA-Number");
}

}  // namespace
}  // namespace mecsched::dta
