#include "mcs/analysis/ge_test.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mcs/analysis/dbf.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/sim/engine.hpp"

namespace mcs::analysis {
namespace {

TaskSet dual(std::vector<McTask> tasks) { return TaskSet(std::move(tasks), 2); }

// Hand-computed values of the credited HI curve for a task with T = 10,
// C(LO) = 2, C(HI) = 4 at x = 0.5: d0 = T - v = 5, credit = C(LO) = 2.
TEST(GeDbfHiTest, CreditedCurveMatchesHandComputation) {
  const McTask task(1, {2.0, 4.0}, 10.0);
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 4.9, 0.5), 0.0);   // before first deadline
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 5.0, 0.5), 2.0);   // 4 - (2 - 0)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 6.0, 0.5), 3.0);   // 4 - (2 - 1)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 7.0, 0.5), 4.0);   // credit exhausted
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 14.0, 0.5), 4.0);  // still one job
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 15.0, 0.5), 6.0);  // 8 - (2 - 0)
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 17.5, 0.5), 8.0);
}

// The credited curve at breakpoints reached by adding periods, pinned bit
// for bit (T = 100.3, x = 0.55, C(LO) = 20, C(HI) = 50).  At t, three jobs
// are due and the carry-over job has run r = 10.03 of its credit:
// 150 - (20 - 10.03).  At t_hi, HI's own accumulated third step, the credit
// is whole up to the rounding error the floor tolerance leaves in r.
TEST(GeDbfHiTest, AccumulatedBreakpointKeepsCreditedValue) {
  const double period = 100.3;
  const double x = 0.55;
  const McTask hi(0, {20.0, 50.0}, period);
  const double t = (x * period + period) + period;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ge_dbf_hi(hi, t, x)),
            std::bit_cast<std::uint64_t>(0x1.180f5c28f5c29p+7));  // 140.03
  const double t_hi = ((period - x * period) + period) + period;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ge_dbf_hi(hi, t_hi, x)),
            std::bit_cast<std::uint64_t>(0x1.0400000000001p+7));  // 130+
}

TEST(GeDbfHiTest, LoTaskHasNoHiDemand) {
  const McTask task(1, {3.0}, 10.0);
  EXPECT_DOUBLE_EQ(ge_dbf_hi(task, 100.0, 0.5), 0.0);
}

// The credit only subtracts: the GE curve never exceeds the dbf.hpp curve
// at the same scale, which is what the dominance argument rests on.
TEST(GeDbfHiTest, LowerBoundsTheUncreditedCurve) {
  const McTask task(1, {3.0, 7.0}, 20.0);
  for (double x : {0.25, 0.5, 0.75, 1.0}) {
    for (double t = 0.0; t <= 200.0; t += 0.5) {
      EXPECT_LE(ge_dbf_hi(task, t, x), dbf_hi(task, t, x) + 1e-12)
          << "t=" << t << " x=" << x;
    }
  }
}

TEST(GeDualTest, EmptyMembersAreSchedulable) {
  const TaskSet ts = dual({McTask(1, {1.0, 2.0}, 10.0)});
  const std::vector<std::size_t> none;
  const GeResult r = ge_dual_test(ts, none);
  EXPECT_TRUE(r.schedulable);
  ASSERT_EQ(r.scales.size(), ts.size());
  EXPECT_DOUBLE_EQ(r.scales[0], 1.0);
}

TEST(GeDualTest, AcceptsLightSetRejectsOverload) {
  const TaskSet light = dual({McTask(1, {1.0, 2.0}, 10.0),
                              McTask(2, {2.0}, 10.0)});
  EXPECT_TRUE(ge_dual_test(light).schedulable);

  // u(LO) alone exceeds 1: no deadline scaling can help.
  const TaskSet heavy = dual({McTask(1, {6.0, 8.0}, 10.0),
                              McTask(2, {6.0}, 10.0)});
  EXPECT_FALSE(ge_dual_test(heavy).schedulable);
}

// As DbfTest.PeriodFarBelowTheBoundFailsInsteadOfHanging: the step cap
// fails the LO scan of every uniform candidate and of the tuning tier.
TEST(GeDualTest, PeriodFarBelowTheBoundFailsInsteadOfHanging) {
  const TaskSet ts = dual({McTask(0, {1e-21}, 1e-20),
                           McTask(1, {10.0, 20.0}, 100.0)});
  EXPECT_FALSE(ge_dual_test(ts).schedulable);
}

TEST(GeDualTest, ThrowsOutsideDualCriticality) {
  const TaskSet k3({McTask(1, {1.0, 2.0, 3.0}, 10.0)}, 3);
  EXPECT_THROW((void)ge_dual_test(k3), std::invalid_argument);
}

TEST(GeDualTest, ScalesAreValidOnAcceptance) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 10;
  params.nsu = 0.6;
  params.num_cores = 1;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const TaskSet ts = gen::generate_trial(params, seed, 0);
    const GeResult r = ge_dual_test(ts);
    if (!r.schedulable) continue;
    ASSERT_EQ(r.scales.size(), ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].level() == 2) {
        EXPECT_GT(r.scales[i], 0.0);
        EXPECT_LE(r.scales[i], 1.0);
      } else {
        EXPECT_DOUBLE_EQ(r.scales[i], 1.0);
      }
    }
  }
}

// Dominance by construction: every dbf_dual_test acceptance must be a GE
// acceptance (the GE tier-1 candidates are exactly the DBF candidates and
// the GE curves are pointwise no larger).  The differential fuzzer checks
// the same property adversarially; this pins it as a unit test.
TEST(GeDualTest, DominatesDbfDualTest) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 12;
  params.num_cores = 1;
  std::size_t dbf_accepts = 0;
  for (double nsu : {0.5, 0.7, 0.9}) {
    params.nsu = nsu;
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
      const TaskSet ts = gen::generate_trial(params, seed, 0);
      if (!dbf_dual_test(ts).schedulable) continue;
      ++dbf_accepts;
      EXPECT_TRUE(ge_dual_test(ts).schedulable)
          << "DBF accepted but GE rejected (nsu=" << nsu
          << " seed=" << seed << ")";
    }
  }
  EXPECT_GT(dbf_accepts, 0u) << "grid never exercised the dominance check";
}

/// Runs `ts` on one core at the accepted per-task scales, once with every
/// HI job overrunning and once with a random mix, and expects no misses.
void expect_no_runtime_misses(const TaskSet& ts, const GeResult& ge,
                              std::uint64_t seed) {
  Partition partition(ts, 1);
  for (std::size_t i = 0; i < ts.size(); ++i) partition.assign(i, 0);
  sim::SimConfig config;
  config.dual_scales = ge.scales;
  EXPECT_TRUE(
      simulate(partition, sim::FixedLevelScenario(2), config).misses.empty())
      << "all HI jobs overrun, seed " << seed;
  EXPECT_TRUE(simulate(partition, sim::RandomScenario(seed, 0.5), config)
                  .misses.empty())
      << "random overruns, seed " << seed;
}

class GePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// Soundness at runtime: a GE-accepted set executed under EDF-VD at the
// accepted per-task scales never misses, whatever the jobs do.
TEST_P(GePropertyTest, AcceptedScalesNeverMissAtRuntime) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_cores = 1;
  params.nsu = 0.65;
  params.num_tasks = 8;
  params.period_classes = {{{10.0, 40.0}, {20.0, 60.0}, {40.0, 80.0}}};
  std::size_t accepted = 0;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    const TaskSet ts = gen::generate_trial(params, GetParam(), trial);
    const GeResult ge = ge_dual_test(ts);
    if (!ge.schedulable) continue;
    ++accepted;
    expect_no_runtime_misses(ts, ge, trial);
  }
  EXPECT_GT(accepted, 3u);
}

// The grid above rarely needs the tuning tier, so run one set that does:
// tier 1 rejects every uniform scale and two moves leave the HI tasks at
// different scales (the set of DemandParityTest's tuning-tier case).
TEST(GeDualTest, TunedScalesNeverMissAtRuntime) {
  const TaskSet ts = dual({
      McTask(0, {0x1.6183589a3c41dp+4}, 0x1.1cfc6562548ebp+7),
      McTask(1, {0x1.941b2d96fc285p+5, 0x1.4d2e36b1e5f4cp+6},
             0x1.30aff059a43cfp+8),
      McTask(2, {0x1.0c19ad2318324p+6, 0x1.ba173af3ea345p+6},
             0x1.37ba656c0caeap+8),
      McTask(3, {0x1.73a2bfee5062ap+3}, 0x1.90abbae3903d9p+5),
  });
  EXPECT_FALSE(dbf_dual_test(ts).schedulable);
  const GeResult ge = ge_dual_test(ts);
  ASSERT_TRUE(ge.schedulable);
  ASSERT_NE(ge.scales[1], ge.scales[2]);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_no_runtime_misses(ts, ge, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GePropertyTest,
                         ::testing::Values(81u, 82u, 83u));

// Determinism: the gate result feeds golden parity and the oracle's scale
// re-derivation, so two runs must agree bit for bit.
TEST(GeDualTest, Deterministic) {
  gen::GenParams params;
  params.num_levels = 2;
  params.num_tasks = 16;
  params.nsu = 0.8;
  params.num_cores = 1;
  const TaskSet ts = gen::generate_trial(params, 3, 0);
  const GeResult a = ge_dual_test(ts);
  const GeResult b = ge_dual_test(ts);
  EXPECT_EQ(a.schedulable, b.schedulable);
  ASSERT_EQ(a.scales.size(), b.scales.size());
  for (std::size_t i = 0; i < a.scales.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.scales[i], b.scales[i]);
  }
}

}  // namespace
}  // namespace mcs::analysis
