#include "mcs/partition/catpa.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mcs/analysis/edfvd.hpp"
#include "mcs/analysis/metrics.hpp"
#include "mcs/exp/paper_params.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/util/stats.hpp"

namespace mcs::partition {
namespace {

TEST(CaTpaTest, NameReflectsOptions) {
  EXPECT_EQ(CaTpaPartitioner().name(), "CA-TPA");
  EXPECT_EQ(
      CaTpaPartitioner(CaTpaOptions{.use_imbalance_control = false}).name(),
      "CA-TPA/noBal");
  EXPECT_EQ(
      CaTpaPartitioner(CaTpaOptions{.display_name = "custom"}).name(),
      "custom");
}

TEST(CaTpaTest, PicksCoreWithMinimumUtilizationIncrement) {
  // tau_A: HI u = (0.3, 0.5); tau_C: HI u = (0.1, 0.3); tau_B: LO u = 0.2.
  // Contribution order: A (0.625), C (0.375), B (0.333).
  // After A -> core 0 (U = 0.5), probing C:
  //   core 0: theta = min{0.8, 0.4/0.2} = 0.8  -> increment 0.30
  //   core 1: theta = min{0.3, 0.1/0.7} = 0.143 -> increment 0.143
  // Core 0 is *feasible* for C, but CA-TPA must still pick core 1 because
  // the HI/LO interplay makes the increment there much smaller.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{30.0, 50.0}, 100.0);  // A
  tasks.emplace_back(1, std::vector<double>{10.0, 30.0}, 100.0);  // C
  tasks.emplace_back(2, std::vector<double>{20.0}, 100.0);        // B
  const TaskSet ts(std::move(tasks), 2);
  // Verify the premise: C fits on A's core, so the split is a choice.
  {
    Partition probe_p(ts, 2);
    probe_p.assign(0, 0);
    const analysis::ProbeResult pr = analysis::probe_assignment(
        probe_p, 1, 0, analysis::core_utilization(probe_p.utils_on(0)));
    ASSERT_TRUE(pr.feasible);
    EXPECT_NEAR(pr.increment, 0.3, 1e-12);
  }
  // Disable the imbalance fallback so the pure min-increment rule decides.
  const CaTpaPartitioner catpa(CaTpaOptions{.use_imbalance_control = false});
  const PartitionResult r = catpa.run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.partition.core_of(0), 0u);
  EXPECT_EQ(r.partition.core_of(1), 1u);
}

TEST(CaTpaTest, ProcessesTasksInContributionOrder) {
  // tau_1's contribution (1.0 at level 2, as the only HI task) beats
  // tau_0's (0.78 at level 1) even though tau_0 has the larger max
  // utilization, so tau_1 is placed first and claims core 0.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{70.0}, 100.0);        // u = 0.7
  tasks.emplace_back(1, std::vector<double>{20.0, 50.0}, 100.0);  // C = 1.0
  const TaskSet ts(std::move(tasks), 2);
  const CaTpaPartitioner catpa(CaTpaOptions{.use_imbalance_control = false});
  const PartitionResult r = catpa.run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.partition.core_of(1), 0u);
  EXPECT_EQ(r.partition.core_of(0), 1u);
}

TEST(CaTpaTest, MaxUtilOrderingAblationChangesProcessingOrder) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{70.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{20.0, 50.0}, 100.0);
  const TaskSet ts(std::move(tasks), 2);
  const CaTpaPartitioner catpa(CaTpaOptions{.use_imbalance_control = false,
                                            .order_by_contribution = false});
  const PartitionResult r = catpa.run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.partition.core_of(0), 0u);  // max-util order: tau_0 first
}

TEST(CaTpaTest, ImbalanceFallbackSpreadsLoad) {
  // With alpha = 0 the fallback always fires: tasks go to the least-utilized
  // feasible core, i.e. WFD-like spreading over 4 cores.
  std::vector<McTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.emplace_back(i, std::vector<double>{20.0, 30.0}, 100.0);
  }
  const TaskSet ts(std::move(tasks), 2);
  const CaTpaPartitioner catpa(CaTpaOptions{.alpha = 0.0});
  const PartitionResult r = catpa.run(ts, 4);
  ASSERT_TRUE(r.success);
  for (std::size_t core = 0; core < 4; ++core) {
    EXPECT_EQ(r.partition.tasks_on(core).size(), 1u) << "core " << core;
  }
}

TEST(CaTpaTest, HighAlphaAllowsPacking) {
  // alpha = 1 never triggers (Lambda < 1 whenever every core is loaded), so
  // identical tasks pack onto the emptiest-increment core -- which for equal
  // increments is the smallest index.
  std::vector<McTask> tasks;
  for (std::size_t i = 0; i < 3; ++i) {
    tasks.emplace_back(i, std::vector<double>{20.0}, 100.0);
  }
  const TaskSet ts(std::move(tasks), 2);
  const CaTpaPartitioner catpa(CaTpaOptions{.alpha = 1.1});
  const PartitionResult r = catpa.run(ts, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.partition.tasks_on(0).size(), 3u);
}

TEST(CaTpaTest, FailureReportsFirstUnplaceableTask) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{10.0, 90.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{10.0, 90.0}, 100.0);
  tasks.emplace_back(2, std::vector<double>{10.0, 90.0}, 100.0);
  const TaskSet ts(std::move(tasks), 2);
  const PartitionResult r = CaTpaPartitioner().run(ts, 2);
  EXPECT_FALSE(r.success);
  ASSERT_TRUE(r.failed_task.has_value());
  EXPECT_EQ(r.partition.assigned_count(), 2u);
}

TEST(CaTpaTest, CountsProbes) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{10.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{10.0}, 100.0);
  const TaskSet ts(std::move(tasks), 3);
  const PartitionResult r =
      CaTpaPartitioner(CaTpaOptions{.use_imbalance_control = false}).run(ts, 3);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.probes, 6u);  // 2 tasks x 3 cores
}

TEST(CaTpaTest, RepairNameAndDefaultOff) {
  EXPECT_EQ(CaTpaPartitioner(CaTpaOptions{.enable_repair = true}).name(),
            "CA-TPA-R");
  EXPECT_FALSE(CaTpaOptions{}.enable_repair);
}

// Properties over random workloads.
class CaTpaPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CaTpaPropertyTest, SuccessfulPartitionsAreFeasibleAndComplete) {
  gen::GenParams params;
  params.num_cores = 4;
  params.num_levels = 4;
  params.nsu = 0.65;
  const CaTpaPartitioner catpa;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    const PartitionResult r = catpa.run(ts, params.num_cores);
    if (!r.success) continue;
    EXPECT_TRUE(r.partition.complete());
    const analysis::PartitionMetrics m =
        analysis::partition_metrics(r.partition);
    EXPECT_TRUE(m.feasible) << "trial " << trial;
    EXPECT_TRUE(std::isfinite(m.u_sys));
  }
}

TEST_P(CaTpaPropertyTest, ImbalanceControlNeverHurtsBalance) {
  gen::GenParams params;
  params.num_cores = 8;
  params.num_levels = 3;
  params.nsu = 0.5;
  const CaTpaPartitioner with_bal(CaTpaOptions{.alpha = 0.3});
  const CaTpaPartitioner without_bal(
      CaTpaOptions{.use_imbalance_control = false});
  util::Welford bal_with;
  util::Welford bal_without;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam() + 100, trial);
    const PartitionResult a = with_bal.run(ts, params.num_cores);
    const PartitionResult b = without_bal.run(ts, params.num_cores);
    if (!a.success || !b.success) continue;
    bal_with.add(analysis::partition_metrics(a.partition).imbalance);
    bal_without.add(analysis::partition_metrics(b.partition).imbalance);
  }
  ASSERT_GT(bal_with.count(), 10u);
  // Aggressive balancing (alpha = 0.3) must produce clearly more balanced
  // partitions on average than no balancing at all.
  EXPECT_LT(bal_with.mean(), bal_without.mean());
}

TEST_P(CaTpaPropertyTest, RepairDominatesPlainCaTpa) {
  // Repair only engages after a plain failure, so CA-TPA's successes must be
  // a subset of CA-TPA-R's, and every repaired partition must be feasible.
  gen::GenParams params;
  params.num_cores = 4;
  params.num_levels = 4;
  params.nsu = 0.58;
  const CaTpaPartitioner plain;
  const CaTpaPartitioner repair(CaTpaOptions{.enable_repair = true});
  for (std::uint64_t trial = 0; trial < 80; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam() + 300, trial);
    const PartitionResult p = plain.run(ts, params.num_cores);
    const PartitionResult q = repair.run(ts, params.num_cores);
    if (p.success) {
      EXPECT_TRUE(q.success) << "repair lost a plain success, trial " << trial;
    }
    if (q.success) {
      EXPECT_TRUE(analysis::partition_metrics(q.partition).feasible)
          << "trial " << trial;
      EXPECT_TRUE(q.partition.complete());
    }
  }
}

TEST(CaTpaRepairTest, RescuesKnownFailingWorkloads) {
  // Two frozen generator draws on which plain CA-TPA fails but the
  // single-migration repair finds a feasible partition (rescues are rare —
  // a genuine failure usually means global overload — so these pinned
  // instances guard the mechanism).  The probe count and the assignment pin
  // the repair's accounting (each dest charges members x cores probes for
  // its victims' refuge scans, plus one probe per tried relocation) and its
  // choices.
  struct Pinned {
    double nsu;
    std::uint64_t trial;
    std::size_t probes;
    std::vector<std::size_t> assignment;  ///< core of task i
  };
  const Pinned pins[] = {
      {0.54, 538, 1241,
       {4, 2, 5, 6, 5, 6, 7, 3, 7, 6, 5, 5, 6, 5, 4, 7, 1, 2, 4, 7, 7, 2,
        4, 7, 7, 5, 3, 1, 6, 3, 3, 2, 1, 2, 2, 4, 5, 5, 1, 7, 0, 1, 7, 7,
        0, 4, 7, 6, 5, 7, 2, 7, 3, 5, 6, 5, 1, 6, 6, 2, 7, 6, 3, 1, 1, 5,
        7, 0, 7, 4, 6, 3, 6, 0, 3, 3, 4, 6, 6, 7, 0, 3, 0, 5, 4, 6, 4, 4}},
      {0.60, 287, 561,
       {7, 5, 6, 0, 7, 4, 6, 6, 0, 7, 4, 2, 4, 3, 1, 5, 1, 5, 7, 2, 6, 5,
        2, 2, 4, 0, 3, 3, 5, 4, 3, 3, 5, 2, 1, 5, 7, 7, 6, 5, 0, 1, 7, 6,
        4, 7, 6}},
  };
  const CaTpaPartitioner plain;
  const CaTpaPartitioner repair(CaTpaOptions{.enable_repair = true});
  for (const Pinned& pin : pins) {
    gen::GenParams params = exp::default_gen_params();
    params.nsu = pin.nsu;
    const TaskSet ts = gen::generate_trial(params, 5, pin.trial);
    EXPECT_FALSE(plain.run(ts, params.num_cores).success)
        << "nsu " << pin.nsu;
    const PartitionResult r = repair.run(ts, params.num_cores);
    ASSERT_TRUE(r.success) << "nsu " << pin.nsu;
    EXPECT_TRUE(analysis::partition_metrics(r.partition).feasible);
    EXPECT_EQ(r.probes, pin.probes) << "nsu " << pin.nsu;
    ASSERT_EQ(ts.size(), pin.assignment.size()) << "nsu " << pin.nsu;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(r.partition.core_of(i), pin.assignment[i])
          << "nsu " << pin.nsu << " task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaTpaPropertyTest,
                         ::testing::Values(5u, 6u, 7u));

}  // namespace
}  // namespace mcs::partition
