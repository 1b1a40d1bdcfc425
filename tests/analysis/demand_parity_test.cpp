// Bit-for-bit parity of the demand gates against test-only reference copies
// (demand_reference.*) that judge every candidate, run every iteration, scan
// LO before HI and start every scan at t = 0.  The library gates stop as
// soon as their verdict is decided, skip candidates a monotone exit settles
// and resume LO scans after LO moves; these tests pin that none of this
// changes a verdict or a single bit of a scale.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "demand_reference.hpp"
#include "mcs/analysis/dbf.hpp"
#include "mcs/analysis/demand_core.hpp"
#include "mcs/analysis/ge_test.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/obs/metrics.hpp"

namespace mcs::analysis {
namespace {

std::string describe(const TaskSet& ts, std::span<const std::size_t> members) {
  std::ostringstream out;
  out << "members:";
  for (std::size_t i : members) out << ' ' << i;
  out << " tasks:" << std::hexfloat;
  for (std::size_t i : members) {
    const McTask& task = ts[i];
    out << " {T=" << task.period() << " C=" << task.wcet(1);
    if (task.level() == 2) out << '/' << task.wcet(2);
    out << '}';
  }
  return out.str();
}

// Compares every field of both results bit for bit.
::testing::AssertionResult same_ge(const GeResult& got, const GeResult& want) {
  if (got.schedulable != want.schedulable) {
    return ::testing::AssertionFailure()
           << "schedulable " << got.schedulable << " vs reference "
           << want.schedulable;
  }
  if (got.scales.size() != want.scales.size()) {
    return ::testing::AssertionFailure() << "scales size differs";
  }
  for (std::size_t i = 0; i < got.scales.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got.scales[i]) !=
        std::bit_cast<std::uint64_t>(want.scales[i])) {
      return ::testing::AssertionFailure()
             << "scale of task " << i << ": " << std::hexfloat
             << got.scales[i] << " vs reference " << want.scales[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_dbf(const DbfResult& got,
                                    const DbfResult& want) {
  if (got.schedulable != want.schedulable ||
      std::bit_cast<std::uint64_t>(got.scale) !=
          std::bit_cast<std::uint64_t>(want.scale)) {
    return ::testing::AssertionFailure()
           << "got (" << got.schedulable << ", " << std::hexfloat
           << got.scale << ") vs reference (" << want.schedulable << ", "
           << want.scale << ")";
  }
  return ::testing::AssertionSuccess();
}

// Random member subsets of generated dual-criticality sets.  Each subset
// is filled in random order up to a drawn target of summed top-level
// utilization around 1, the load at which a first-fit gate decides whether
// a core is full, so most subsets sit near the accept/reject frontier where
// both gates do the most work.
TEST(DemandParityTest, RandomSubsetsMatchTheReferenceBitForBit) {
  std::size_t calls = 0;
  std::size_t ge_accepts = 0;
  std::size_t dbf_accepts = 0;
  std::size_t cap_rejects = 0;    // tuning tier ran to its cap
  std::size_t ping_pongs = 0;     // ... and undid a move on the way
  std::size_t tuned_accepts = 0;  // tuning tier accepted after >= 2 moves
  reference::UniformTier exits;   // summed over both gates
  std::size_t resumable_scans = 0;
  gen::Rng rng(20160816);
  std::vector<std::size_t> pool;
  std::vector<std::size_t> members;
  for (const std::size_t cores : {2u, 3u, 4u, 8u}) {
    for (std::uint64_t draw = 0; draw < 120; ++draw) {
      gen::GenParams params;
      params.num_cores = cores;
      params.num_levels = 2;
      params.num_tasks = rng.uniform_int(16, 60);
      params.ifc = rng.uniform(0.2, 1.0);
      params.nsu = rng.uniform(0.5, 1.0);
      const TaskSet ts = gen::generate_trial(params, rng(), draw);
      pool.resize(ts.size());
      std::iota(pool.begin(), pool.end(), std::size_t{0});
      for (int subset = 0; subset < 8; ++subset) {
        const double target = rng.uniform(0.9, 1.4);
        double load = 0.0;
        members.clear();
        // Partial Fisher-Yates: members is a uniform random subset in
        // random order, grown until its load reaches the target.
        for (std::size_t i = 0; i < pool.size() && load < target; ++i) {
          std::swap(pool[i], pool[rng.uniform_int(i, pool.size() - 1)]);
          const McTask& task = ts[pool[i]];
          load += task.wcet(task.level()) / task.period();
          members.push_back(pool[i]);
        }
        ++calls;

        reference::GeTuning tuning;
        reference::UniformTier ge_exits;
        const GeResult want_ge =
            reference::ge_dual_test(ts, members, &tuning, &ge_exits);
        ASSERT_TRUE(same_ge(ge_dual_test(ts, members), want_ge))
            << describe(ts, members);
        reference::UniformTier dbf_exits;
        const DbfResult want_dbf =
            reference::dbf_dual_test(ts, members, &dbf_exits);
        ASSERT_TRUE(same_dbf(dbf_dual_test(ts, members), want_dbf))
            << describe(ts, members);

        ge_accepts += want_ge.schedulable ? 1u : 0u;
        dbf_accepts += want_dbf.schedulable ? 1u : 0u;
        cap_rejects += tuning.hit_cap ? 1u : 0u;
        ping_pongs += tuning.hit_cap && tuning.undid_move ? 1u : 0u;
        tuned_accepts +=
            tuning.entered && want_ge.schedulable && tuning.moves >= 2 ? 1u
                                                                       : 0u;
        exits.lo_exits += ge_exits.lo_exits + dbf_exits.lo_exits;
        exits.hi_exits += ge_exits.hi_exits + dbf_exits.hi_exits;
        resumable_scans += tuning.lo_scans_after_lo_move;
      }
    }
  }
  // The grid must reach every exit, both verdicts and resumed LO scans, or
  // the parity above proves nothing about them.
  EXPECT_GT(ge_accepts, calls / 10) << calls << " calls";
  EXPECT_LT(ge_accepts, calls - calls / 10) << calls << " calls";
  EXPECT_GT(dbf_accepts, calls / 10) << calls << " calls";
  EXPECT_GT(ping_pongs, 0u) << cap_rejects << " cap rejections";
  EXPECT_GT(tuned_accepts, 0u);
  EXPECT_GT(exits.lo_exits, 0u);
  EXPECT_GT(exits.hi_exits, 0u);
  EXPECT_GT(resumable_scans, 0u);
  std::cout << calls << " calls, " << exits.lo_exits << " LO-exit and "
            << exits.hi_exits << " HI-exit candidates, " << resumable_scans
            << " LO scans after an LO move\n";
}

std::vector<std::size_t> all_of(const TaskSet& ts) {
  std::vector<std::size_t> all(ts.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

// Shrunk from the grid above.  Tier 1 rejects every uniform scale, and the
// tuning tier's only HI task then alternates between two scales: each
// move undoes the one before it, so the reference runs all 48 iterations
// to its cap while the library stops at the first undo.  Same rejection.
TEST(DemandParityTest, PingPongTuningRejectsLikeTheCap) {
  const TaskSet ts(
      {
          // T=211.59 C(LO)=69.76
          McTask(0, {0x1.1708454079bb3p+6}, 0x1.a72e615c02d02p+7),
          // T=293.97 C(LO)=175.79 C(HI)=232.58
          McTask(1, {0x1.5f92de901f1b1p+7, 0x1.d128e4b874ff5p+7},
                 0x1.25f7a153c6616p+8),
      },
      2);
  const std::vector<std::size_t> members = all_of(ts);
  reference::GeTuning tuning;
  const GeResult want = reference::ge_dual_test(ts, members, &tuning);
  ASSERT_TRUE(tuning.entered);
  EXPECT_TRUE(tuning.hit_cap);
  EXPECT_TRUE(tuning.undid_move);
  EXPECT_FALSE(want.schedulable);
  EXPECT_TRUE(same_ge(ge_dual_test(ts, members), want));
}

// Drawn from a GE-FFD placement of an h2 trial (NSU 0.9, core members plus
// the task tried).  Tier 1 rejects every uniform scale, and the tuning walk
// stands after its 14th move on the state it left 8 moves earlier, without
// ever undoing the move just before: a check for 2-cycles never fires, and
// the reference runs all 48 iterations to its cap.  The library ends at
// the repeated state, 34 iterations sooner (its demand.tier2_cycle counter
// moves, not .tier2_cap), with the same rejection.
TEST(DemandParityTest, RepeatedStateTuningRejectsLikeTheCap) {
  const TaskSet ts(
      {
          // T=434.72 C(LO)=56.07 C(HI)=78.50
          McTask(0, {0x1.c08baf1dbbdfep+5, 0x1.39fb60fb36b65p+6},
                 0x1.b2b7dbdfdd73ep+8),
          // T=453.42 C(LO)=57.62 C(HI)=80.67
          McTask(1, {0x1.ccfbccf806ba8p+5, 0x1.42b042ad9e4f5p+6},
                 0x1.c56c4f971efdap+8),
          // T=475.01 C(LO)=59.58 C(HI)=83.41
          McTask(2, {0x1.dca82cdecf653p+5, 0x1.4da8ec35912d3p+6},
                 0x1.db023370ba8b3p+8),
          // T=1244.57 C(LO)=145.55 C(HI)=203.77
          McTask(3, {0x1.23189cb7010fcp+7, 0x1.9788db669b16p+7},
                 0x1.372440b0d6b3bp+10),
          // T=108.98 C(LO)=12.55 C(HI)=17.57
          McTask(4, {0x1.917e903e63f3bp+3, 0x1.190bcb5edf90fp+4},
                 0x1.b3e7c770f9c24p+6),
          // T=261.31 C(LO)=31.55
          McTask(5, {0x1.f8d7a50f2170fp+4}, 0x1.05501925ae33cp+8),
          // T=1011.26 C(LO)=121.79
          McTask(6, {0x1.e72d2576ca834p+6}, 0x1.f9a1af9e27c63p+9),
          // T=739.02 C(LO)=60.08 C(HI)=84.11
          McTask(7, {0x1.e0a33c9c99f47p+5, 0x1.5072440738918p+6},
                 0x1.71821ce745decp+9),
      },
      2);
  const std::vector<std::size_t> members = all_of(ts);
  reference::GeTuning tuning;
  const GeResult want = reference::ge_dual_test(ts, members, &tuning);
  ASSERT_TRUE(tuning.entered);
  EXPECT_TRUE(tuning.hit_cap);
  EXPECT_FALSE(tuning.undid_move);
  EXPECT_EQ(tuning.repeat_at, 14u);
  EXPECT_EQ(tuning.cycle, 8u);
  EXPECT_FALSE(want.schedulable);

  const obs::MetricsEnabledGuard metrics_on(true);
  obs::Counter& cycle_exits = obs::registry().counter("demand.tier2_cycle");
  obs::Counter& cap_exits = obs::registry().counter("demand.tier2_cap");
  const std::uint64_t cycles = cycle_exits.value();
  const std::uint64_t caps = cap_exits.value();
  EXPECT_TRUE(same_ge(ge_dual_test(ts, members), want));
  EXPECT_EQ(cycle_exits.value() - cycles, 1u);
  EXPECT_EQ(cap_exits.value() - caps, 0u);
}

// Shrunk from the grid above.  Tier 1 rejects every uniform scale; the
// tuning tier accepts after two moves with two different HI scales.
TEST(DemandParityTest, TuningTierAcceptanceKeepsItsScales) {
  const TaskSet ts(
      {
          // T=142.49 C(LO)=22.09
          McTask(0, {0x1.6183589a3c41dp+4}, 0x1.1cfc6562548ebp+7),
          // T=304.69 C(LO)=50.51 C(HI)=83.30
          McTask(1, {0x1.941b2d96fc285p+5, 0x1.4d2e36b1e5f4cp+6},
                 0x1.30aff059a43cfp+8),
          // T=311.73 C(LO)=67.03 C(HI)=110.52
          McTask(2, {0x1.0c19ad2318324p+6, 0x1.ba173af3ea345p+6},
                 0x1.37ba656c0caeap+8),
          // T=50.08 C(LO)=11.61
          McTask(3, {0x1.73a2bfee5062ap+3}, 0x1.90abbae3903d9p+5),
      },
      2);
  const std::vector<std::size_t> members = all_of(ts);
  reference::GeTuning tuning;
  const GeResult want = reference::ge_dual_test(ts, members, &tuning);
  ASSERT_TRUE(tuning.entered);
  EXPECT_EQ(tuning.moves, 2u);
  EXPECT_FALSE(tuning.hit_cap);
  ASSERT_TRUE(want.schedulable);
  EXPECT_EQ(want.scales,
            (std::vector<double>{1.0, 0.5, 0x1.3333333333334p-1, 1.0}));
  EXPECT_TRUE(same_ge(ge_dual_test(ts, members), want));
}

// Drawn from random subsets like the grid above.  Candidate x = 1 fails
// HI and 1 - U_2(2) fails LO.  At the third, the EDF-VD factor, the LO
// scan passes all 42 breakpoints up to its bound while the HI scan fails
// at its first, t = 350.7, far below that bound: the uniform tier races
// the two scans and drops the passing LO scan part way.  GE then accepts
// at x = 0.75 in tier 1.  Verdict and scale must not move.
TEST(DemandParityTest, RacedScansKeepTheVerdictAndScale) {
  const TaskSet ts(
      {
          // T=1765.59 C(LO)=421.92 C(HI)=799.72
          McTask(0, {0x1.a5eb4f8dc0d37p+8, 0x1.8fdcc141d91e9p+9},
                 0x1.b965b9e0ad435p+10),
          // T=75.26 C(LO)=16.95
          McTask(1, {0x1.0f3073447e9bbp+4}, 0x1.2d058fc2ceb5ap+6),
          // T=584.06 C(LO)=51.33
          McTask(2, {0x1.9aa3061837c95p+5}, 0x1.24084b6a9525p+9),
          // T=118.60 C(LO)=21.68
          McTask(3, {0x1.5adb638b5786bp+4}, 0x1.da61d9012054ap+6),
          // T=137.00 C(LO)=28.21
          McTask(4, {0x1.c35398d2eb6d4p+4}, 0x1.12004cadf05dap+7),
      },
      2);
  const std::vector<std::size_t> members = all_of(ts);
  constexpr double kEdfVd = 0x1.9a4c1419d973bp-1;  // 0.8014
  demand::ModeCurves curves;
  demand::build_curves(ts, members,
                       std::vector<double>(members.size(), kEdfVd), curves);
  const std::optional<double> lo_bound = demand::analysis_bound(curves[0]);
  const std::optional<double> hi_bound = demand::analysis_bound(curves[1]);
  ASSERT_TRUE(lo_bound && hi_bound);
  reference::ScanStats lo_scan;
  reference::ScanStats hi_scan;
  EXPECT_FALSE(reference::first_violation<demand::Formula::kCredited>(
      curves[0], *lo_bound, &lo_scan));
  const std::optional<double> hi_violation =
      reference::first_violation<demand::Formula::kCredited>(
          curves[1], *hi_bound, &hi_scan);
  ASSERT_TRUE(hi_violation);
  EXPECT_EQ(lo_scan.breakpoints, 42u);
  EXPECT_EQ(hi_scan.breakpoints, 1u);
  EXPECT_LT(*hi_violation, *lo_bound / 4.0);

  reference::GeTuning tuning;
  const GeResult want = reference::ge_dual_test(ts, members, &tuning);
  EXPECT_FALSE(tuning.entered);
  ASSERT_TRUE(want.schedulable);
  EXPECT_EQ(want.scales[0], 0.75);
  EXPECT_TRUE(same_ge(ge_dual_test(ts, members), want));
  EXPECT_TRUE(same_dbf(dbf_dual_test(ts, members),
                       reference::dbf_dual_test(ts, members)));
}

// Two one-core sets where a check fails by its busy-period bound at one
// candidate and a candidate on the other side of it passes.  The bound
// failure settles every candidate beyond it for free, so an exit that
// looked the wrong way would reject both sets.
TEST(DemandParityTest, MonotoneExitsSettleOnlyTheirOwnSide) {
  // U_HI = 0.9995: the HI bound exceeds the horizon at x = 1, the first
  // candidate, and GE passes at the EDF-VD factor 0.04.
  const TaskSet hi_bound_fails_at_one({McTask(0, {4.0, 99.95}, 100.0)}, 2);
  // U_LO = 0.9995: the LO bound exceeds the horizon at 1 - U_2(2) = 0.4995,
  // the second candidate, and GE passes at the EDF-VD factor 0.999001.
  const TaskSet lo_bound_fails_below(
      {McTask(0, {500.0, 500.5}, 1000.0), McTask(1, {0.999}, 2.0)}, 2);
  for (const TaskSet* ts : {&hi_bound_fails_at_one, &lo_bound_fails_below}) {
    const std::vector<std::size_t> members = all_of(*ts);
    const GeResult want = reference::ge_dual_test(*ts, members);
    ASSERT_TRUE(want.schedulable) << describe(*ts, members);
    EXPECT_LT(want.scales[0], 1.0);
    EXPECT_TRUE(same_ge(ge_dual_test(*ts, members), want))
        << describe(*ts, members);
    EXPECT_TRUE(same_dbf(dbf_dual_test(*ts, members),
                         reference::dbf_dual_test(*ts, members)))
        << describe(*ts, members);
  }
}

}  // namespace
}  // namespace mcs::analysis
