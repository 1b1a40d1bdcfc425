#include "mcs/analysis/dbf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "mcs/analysis/demand_core.hpp"
#include "mcs/analysis/edfvd.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/sim/engine.hpp"

namespace mcs::analysis {
namespace {

TEST(DbfCurveTest, LoTaskStepsAtitsDeadlines) {
  const McTask lo(0, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 9.9, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 10.0, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 19.9, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 20.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(dbf_lo(lo, 45.0, 1.0), 12.0);
}

TEST(DbfCurveTest, HiTaskUsesScaledDeadlineInLoMode) {
  const McTask hi(0, {2.0, 6.0}, 10.0);
  // x = 0.5 -> virtual deadline 5.
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 4.9, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 5.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(dbf_lo(hi, 15.0, 0.5), 4.0);
}

TEST(DbfCurveTest, HiModeUsesComplementaryDeadline) {
  const McTask hi(0, {2.0, 6.0}, 10.0);
  // x = 0.4 -> effective HI deadline 10 - 4 = 6, cost C(HI) = 6.
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 5.9, 0.4), 0.0);
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 6.0, 0.4), 6.0);
  EXPECT_DOUBLE_EQ(dbf_hi(hi, 16.0, 0.4), 12.0);
}

// At a breakpoint reached by adding periods, (t - d)/T falls a rounding
// error short of 2 and the 1e-9 floor tolerance counts the third job.  The
// step curve then owes exactly three whole jobs.  The credited formula
// with zero credit would subtract the negative remainder (-2^-45 here), so
// the DBF gate must keep its own formula rather than GE's at credit 0.
TEST(DbfCurveTest, AccumulatedBreakpointCountsWholeJobs) {
  const double period = 100.3;
  const double x = 0.55;
  const McTask hi(0, {20.0, 50.0}, period);
  const double t = (x * period + period) + period;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dbf_lo(hi, t, x)),
            std::bit_cast<std::uint64_t>(3.0 * 20.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(dbf_hi(hi, t, x)),
            std::bit_cast<std::uint64_t>(3.0 * 50.0));
  // The premise: the credited formula at zero credit differs here.
  const demand::Curve lo_curve{x * period, period, 20.0, 0.0};
  EXPECT_LT(demand::curve_demand<demand::Formula::kCredited>(lo_curve, t),
            3.0 * 20.0);
}

TEST(DbfCurveTest, LoTaskContributesNothingInHiMode) {
  const McTask lo(0, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(dbf_hi(lo, 100.0, 0.5), 0.0);
}

TEST(DbfTest, LoOnlyWorkloadNeedsNoScaling) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{4.0}, 20.0);
  const TaskSet ts(std::move(tasks), 2);
  const DbfResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.scale, 1.0);
}

TEST(DbfTest, AcceptsLightMixedWorkloadWithScaling) {
  // With HI tasks present, x = 1 can never pass the HI-mode test (a
  // carry-over job would have zero slack), so a scaled deadline is chosen.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{2.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{1.0, 3.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  const DbfResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_GT(r.scale, 0.0);
  EXPECT_LT(r.scale, 1.0);
}

TEST(DbfTest, RejectsOverload) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{6.0}, 10.0);
  tasks.emplace_back(1, std::vector<double>{3.0, 8.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  EXPECT_FALSE(dbf_dual_test(ts).schedulable);
}

TEST(DbfTest, NeedsDeadlineScalingForHeavyHiTasks) {
  // U_1(1) = 0.32, U_2(1) = 0.2, U_2(2) = 0.7: plain EDF misses in LO mode
  // after a switch-free... (x = 1 fails the HI test: effective deadline 0);
  // the test must find an intermediate x.
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{32.0}, 100.0);
  tasks.emplace_back(1, std::vector<double>{20.0, 70.0}, 100.0);
  const TaskSet ts(std::move(tasks), 2);
  const DbfResult r = dbf_dual_test(ts);
  ASSERT_TRUE(r.schedulable);
  EXPECT_LT(r.scale, 1.0);
  EXPECT_GT(r.scale, 0.0);
}

TEST(DbfTest, EmptySubsetSchedulable) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0}, 10.0);
  const TaskSet ts(std::move(tasks), 2);
  EXPECT_TRUE(
      dbf_dual_test(ts, std::vector<std::size_t>{}).schedulable);
}

TEST(DbfTest, RequiresDualCriticality) {
  std::vector<McTask> tasks;
  tasks.emplace_back(0, std::vector<double>{1.0, 2.0, 3.0}, 10.0);
  const TaskSet ts(std::move(tasks), 3);
  EXPECT_THROW((void)dbf_dual_test(ts), std::invalid_argument);
}

// A period of 1e-20 is below half an ulp of a lane's time once the lane
// passes about 1e-4, so a scan up to the LO bound would never end.  The
// scan's step cap fails the mode conservatively instead.
TEST(DbfTest, PeriodFarBelowTheBoundFailsInsteadOfHanging) {
  const TaskSet ts({McTask(0, {1e-21}, 1e-20), McTask(1, {10.0, 20.0}, 100.0)},
                   2);
  EXPECT_FALSE(dbf_dual_test(ts).schedulable);
}

class DbfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Soundness: a DBF-accepted set executed under EDF-VD *at the accepted
// deadline scale* never misses, whatever the jobs do.
TEST_P(DbfPropertyTest, AcceptedSetsNeverMissAtTheChosenScale) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 1;
  params.nsu = 0.55;
  params.num_tasks = 8;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  std::size_t accepted = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    const DbfResult dbf = dbf_dual_test(ts);
    if (!dbf.schedulable) continue;
    ++accepted;
    Partition partition(ts, 1);
    for (std::size_t i = 0; i < ts.size(); ++i) partition.assign(i, 0);
    sim::SimConfig config;
    config.dual_scales.assign(ts.size(), dbf.scale);
    for (int kind = 0; kind < 3; ++kind) {
      const sim::SimResult r = [&] {
        switch (kind) {
          case 0:
            return simulate(partition, sim::FixedLevelScenario(1), config);
          case 1:
            return simulate(partition, sim::FixedLevelScenario(2), config);
          default:
            return simulate(partition, sim::RandomScenario(trial, 0.4),
                            config);
        }
      }();
      EXPECT_TRUE(r.misses.empty())
          << "trial " << trial << " scenario " << kind << " scale "
          << dbf.scale;
    }
  }
  EXPECT_GT(accepted, 5u);
}

// Statistical dominance: across many draws the DBF test accepts at least
// roughly as many sets as the utilization test (it is strictly finer in
// theory; the small slack absorbs its conservative horizon cap and scale
// grid at analytic boundary cases).
TEST_P(DbfPropertyTest, AcceptsAboutAsMuchAsTheUtilizationTest) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 1;
  params.nsu = 0.75;
  params.num_tasks = 8;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  std::size_t util_ok = 0;
  std::size_t dbf_ok = 0;
  for (std::uint64_t trial = 0; trial < 60; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    if (improved_test(ts.utils()).schedulable) ++util_ok;
    if (dbf_dual_test(ts).schedulable) ++dbf_ok;
  }
  EXPECT_GE(dbf_ok + 3, util_ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbfPropertyTest,
                         ::testing::Values(41u, 42u, 43u));

}  // namespace
}  // namespace mcs::analysis
