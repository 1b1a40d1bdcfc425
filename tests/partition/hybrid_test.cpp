#include "mcs/partition/hybrid.hpp"

#include <gtest/gtest.h>

#include "mcs/analysis/edfvd.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/classic.hpp"

namespace mcs::partition {
namespace {

TEST(HybridTest, HighTasksSpreadWfdThenLowPackFfd) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{10.0, 50.0}, 100.0);  // HI u(2)=.5
  tasks.emplace_back(1, std::vector<double>{10.0, 40.0}, 100.0);  // HI u(2)=.4
  tasks.emplace_back(2, std::vector<double>{30.0}, 100.0);        // LO .3
  tasks.emplace_back(3, std::vector<double>{20.0}, 100.0);        // LO .2
  const TaskSet ts(std::move(tasks), 2);
  const HybridPartitioner hybrid;
  const PartitionResult r = hybrid.run(ts, 2);
  ASSERT_TRUE(r.success);
  // WFD spreads the HI tasks: tau_0 -> c0, tau_1 -> c1; FFD packs LO on c0.
  EXPECT_EQ(r.partition.core_of(0), 0u);
  EXPECT_EQ(r.partition.core_of(1), 1u);
  EXPECT_EQ(r.partition.core_of(2), 0u);
  EXPECT_EQ(r.partition.core_of(3), 0u);
}

TEST(HybridTest, HighGroupOrderedByLevelThenUtilization) {
  // K=3: the L3 task goes before the heavier L2 task.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{5.0, 10.0, 30.0}, 100.0);  // L3 .3
  tasks.emplace_back(1, std::vector<double>{5.0, 60.0}, 100.0);        // L2 .6
  const TaskSet ts(std::move(tasks), 3);
  const HybridPartitioner hybrid;
  const PartitionResult r = hybrid.run(ts, 2);
  ASSERT_TRUE(r.success);
  // L3 first -> core 0 (WFD over empty cores picks the first), L2 -> core 1.
  EXPECT_EQ(r.partition.core_of(0), 0u);
  EXPECT_EQ(r.partition.core_of(1), 1u);
}

TEST(HybridTest, ExactUtilizationTiesBreakByLevelThenIndex) {
  // K=3, M=3.  Every WCET vector is flat, so Theorem 1 rejects exactly
  // where Eq. (4) does, and u = 0.3 is the same double at levels 1, 2 and
  // 3 and at several indices.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{30.0, 30.0}, 100.0);        // L2
  tasks.emplace_back(1, std::vector<double>{30.0, 30.0, 30.0}, 100.0);  // L3
  tasks.emplace_back(2, std::vector<double>{30.0, 30.0}, 100.0);        // L2
  tasks.emplace_back(3, std::vector<double>{20.0, 20.0, 20.0}, 100.0);  // L3
  tasks.emplace_back(4, std::vector<double>{40.0, 40.0}, 100.0);        // L2
  tasks.emplace_back(5, std::vector<double>{30.0}, 100.0);              // L1
  tasks.emplace_back(6, std::vector<double>{5.0}, 100.0);               // L1
  tasks.emplace_back(7, std::vector<double>{30.0}, 100.0);              // L1
  tasks.emplace_back(8, std::vector<double>{30.0}, 100.0);              // L1
  const TaskSet ts(std::move(tasks), 3);
  const PartitionResult r = HybridPartitioner().run(ts, 3);
  ASSERT_TRUE(r.success);
  // High group, WFD: tau_1, tau_3 (L3), then tau_4, tau_0, tau_2 (L2; the
  // tied tau_0 and tau_2 by index).  Loads go [.3 0 0] -> [.3 .2 0] ->
  // [.3 .2 .4] -> [.3 .5 .4] -> [.6 .5 .4].
  // Low group, FFD: tau_5, tau_7, tau_8 (tied, by index), then tau_6.
  // tau_5 fills core 0 to .9; tau_7 no longer fits there and fills core 1
  // to .8; tau_8 fits neither and lands on core 2; tau_6 (.05) still fits
  // on core 0.
  const std::size_t expected[] = {1, 0, 0, 1, 2, 0, 0, 1, 2};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(r.partition.core_of(i), expected[i]) << "task " << i;
  }
}

TEST(HybridTest, ReducesToWfdWhenAllTasksAreHigh) {
  std::vector<McTask> tasks;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks.emplace_back(i, std::vector<double>{5.0, 10.0 + 5.0 * static_cast<double>(i)},
                       100.0);
  }
  const TaskSet ts_h(std::move(tasks), 2);
  const PartitionResult hybrid = HybridPartitioner().run(ts_h, 2);
  // Rebuild an identical set for the reference scheme (TaskSet is movable
  // but the partitions hold references).
  std::vector<McTask> tasks2;
  for (std::size_t i = 0; i < 4; ++i) {
    tasks2.emplace_back(i, std::vector<double>{5.0, 10.0 + 5.0 * static_cast<double>(i)},
                        100.0);
  }
  const TaskSet ts_w(std::move(tasks2), 2);
  const PartitionResult wfd = ClassicPartitioner(FitRule::kWorst).run(ts_w, 2);
  ASSERT_TRUE(hybrid.success);
  ASSERT_TRUE(wfd.success);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hybrid.partition.core_of(i), wfd.partition.core_of(i));
  }
}

TEST(HybridTest, ReducesToFfdWhenAllTasksAreLow) {
  std::vector<McTask> a;
  std::vector<McTask> b;
  for (std::size_t i = 0; i < 5; ++i) {
    a.emplace_back(i, std::vector<double>{10.0 + 7.0 * static_cast<double>(i)}, 100.0);
    b.emplace_back(i, std::vector<double>{10.0 + 7.0 * static_cast<double>(i)}, 100.0);
  }
  const TaskSet ts_h(std::move(a), 2);
  const TaskSet ts_f(std::move(b), 2);
  const PartitionResult hybrid = HybridPartitioner().run(ts_h, 2);
  const PartitionResult ffd = ClassicPartitioner(FitRule::kFirst).run(ts_f, 2);
  ASSERT_TRUE(hybrid.success);
  ASSERT_TRUE(ffd.success);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(hybrid.partition.core_of(i), ffd.partition.core_of(i));
  }
}

TEST(HybridTest, FailureInHighPhaseReportsTask) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{10.0, 90.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{10.0, 90.0}, 100.0);
  tasks.emplace_back(2, std::vector<double>{10.0, 90.0}, 100.0);
  const TaskSet ts(std::move(tasks), 2);
  const PartitionResult r = HybridPartitioner().run(ts, 2);
  EXPECT_FALSE(r.success);
  ASSERT_TRUE(r.failed_task.has_value());
}

TEST(HybridTest, SuccessfulPartitionsAreFeasible) {
  gen::GenParams params;
  params.num_cores = 4;
  params.num_levels = 4;
  params.nsu = 0.6;
  const HybridPartitioner hybrid;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    const TaskSet ts = gen::generate_trial(params, 77, trial);
    const PartitionResult r = hybrid.run(ts, params.num_cores);
    if (!r.success) continue;
    EXPECT_TRUE(r.partition.complete());
    for (std::size_t core = 0; core < params.num_cores; ++core) {
      EXPECT_TRUE(
          analysis::improved_test(r.partition.utils_on(core)).schedulable);
    }
  }
}

}  // namespace
}  // namespace mcs::partition
