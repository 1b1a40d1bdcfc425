// Property test for the batched all-cores probe API: across a grid of
// K in {1, 2, 3, 4, 6} x M in {1, 2, 3, 4, 5, 8, 13, 64}, random task sets
// and every lane backend the host has, probe_all_cores / probe_fits_all /
// probe_fits_basic_all must be BITWISE identical to M scalar probes —
// every ProbeResult field under all three policies and both accept masks —
// on empty, partially filled and churned (uncommit/relocate) engine
// states, and each batched call must advance probes() by exactly
// num_cores() (the documented accounting contract).  The kernel walks the
// cores in pairs of lane packs, then single packs, then scalar lanes:
// M in {3, 5, 13} leaves single packs and scalar tails under both AVX2
// (4 lanes a pack) and SSE2 (2), and 64 runs long walks.  NoLevelCap adds
// K = 20: the kernel keeps its per-level rows in scratch sized from K,
// with no fixed cap on the number of levels.
//
// With the metrics gate on, one probe_fits_all must also move the
// placement counters the sweep artifacts' per-point counters are built
// from (eq4_accepts, improved_tests, probes_infeasible) by exactly what the
// M scalar probe_fits calls move them.  The batched kernel skips Theorem 1
// when Eq. (4) accepts every core, so each K >= 2 grid cell must reach both
// kinds of call: Eq. (4) accepting every core, and rejecting at least one.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "mcs/analysis/placement.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/obs/metrics.hpp"

namespace mcs::analysis {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The placement counters an accept-mask probe moves.
struct FitsCounters {
  std::uint64_t eq4_accepts = 0;
  std::uint64_t improved_tests = 0;
  std::uint64_t probes_infeasible = 0;

  static FitsCounters read() {
    obs::Registry& r = obs::registry();
    return {r.counter("placement.eq4_accepts").value(),
            r.counter("placement.improved_tests").value(),
            r.counter("placement.probes_infeasible").value()};
  }
  FitsCounters operator-(const FitsCounters& o) const {
    return {eq4_accepts - o.eq4_accepts, improved_tests - o.improved_tests,
            probes_infeasible - o.probes_infeasible};
  }
};

/// probe_fits_all calls by what Eq. (4) said about the cores.
struct Eq4Tally {
  std::size_t all_accepted = 0;
  std::size_t some_rejected = 0;
};

class BatchProbeProperty
    : public ::testing::TestWithParam<std::tuple<Level, std::size_t>> {};

/// Puts the runtime-detected lane backend back, however the test ends.
struct BackendRestore {
  ~BackendRestore() { set_batch_probe_backend("auto"); }
};

void expect_batched_matches_scalar(PlacementEngine& engine, std::size_t task,
                                   const char* when, Eq4Tally& tally) {
  const obs::MetricsEnabledGuard metrics_on(true);
  const std::size_t cores = engine.num_cores();
  std::vector<ProbeResult> batched(cores);
  std::vector<unsigned char> mask(cores, 0);

  const ProbePolicy policies[] = {ProbePolicy::kFirstFeasible,
                                  ProbePolicy::kMinOverFeasible,
                                  ProbePolicy::kMaxOverFeasible};
  for (const ProbePolicy policy : policies) {
    const std::size_t before = engine.probes();
    engine.probe_all_cores(task, policy, batched);
    ASSERT_EQ(engine.probes(), before + cores)
        << when << ": one batched call must count num_cores() probes";
    for (std::size_t m = 0; m < cores; ++m) {
      const ProbeResult scalar = engine.probe(task, m, policy);
      ASSERT_EQ(scalar.feasible, batched[m].feasible)
          << when << ": task " << task << " core " << m << " policy "
          << static_cast<int>(policy);
      ASSERT_TRUE(bits_equal(scalar.new_util, batched[m].new_util))
          << when << ": new_util " << batched[m].new_util << " vs scalar "
          << scalar.new_util << " (task " << task << " core " << m << ")";
      ASSERT_TRUE(bits_equal(scalar.increment, batched[m].increment))
          << when << ": increment " << batched[m].increment << " vs scalar "
          << scalar.increment << " (task " << task << " core " << m << ")";
    }
  }

  {
    const std::size_t before = engine.probes();
    const FitsCounters batched_before = FitsCounters::read();
    engine.probe_fits_all(task, mask);
    const FitsCounters batched_moved = FitsCounters::read() - batched_before;
    ASSERT_EQ(engine.probes(), before + cores)
        << when << ": probe_fits_all accounting";
    const FitsCounters scalar_before = FitsCounters::read();
    for (std::size_t m = 0; m < cores; ++m) {
      ASSERT_EQ(mask[m] != 0, engine.probe_fits(task, m))
          << when << ": accept mask, task " << task << " core " << m;
    }
    const FitsCounters scalar_moved = FitsCounters::read() - scalar_before;
    EXPECT_EQ(batched_moved.eq4_accepts, scalar_moved.eq4_accepts)
        << when << ": placement.eq4_accepts, task " << task;
    EXPECT_EQ(batched_moved.improved_tests, scalar_moved.improved_tests)
        << when << ": placement.improved_tests, task " << task;
    EXPECT_EQ(batched_moved.probes_infeasible, scalar_moved.probes_infeasible)
        << when << ": placement.probes_infeasible, task " << task;
    if (engine.taskset().num_levels() >= 2) {
      ++(scalar_moved.eq4_accepts == cores ? tally.all_accepted
                                           : tally.some_rejected);
    }
  }
  {
    const std::size_t before = engine.probes();
    engine.probe_fits_basic_all(task, mask);
    ASSERT_EQ(engine.probes(), before + cores)
        << when << ": probe_fits_basic_all accounting";
    for (std::size_t m = 0; m < cores; ++m) {
      ASSERT_EQ(mask[m] != 0, engine.probe_fits_basic(task, m))
          << when << ": Eq. (4) mask, task " << task << " core " << m;
    }
  }
}

TEST_P(BatchProbeProperty, BitIdenticalToScalarProbes) {
  const Level K = std::get<0>(GetParam());
  const std::size_t M = std::get<1>(GetParam());

  gen::GenParams gp;
  gp.num_cores = M;
  gp.num_levels = K;
  gp.num_tasks = 24;

  // Every lane backend this host runs walks the same workouts.
  const BackendRestore restore;
  Eq4Tally tally;
  for (const char* backend : {"avx2", "sse2", "scalar"}) {
    if (!set_batch_probe_backend(backend)) continue;  // not on this host
    SCOPED_TRACE(backend);
    // NSU 0.7 fills few cores past Eq. (4) at small M; the overloaded 1.6
    // workout makes Eq. (4) reject cores there too.
    for (const double nsu : {0.7, 1.6}) {
      gp.nsu = nsu;
      for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}}) {
        const TaskSet ts = gen::generate_trial(gp, seed, 0);
        PlacementEngine engine(ts, M);
        gen::Rng rng(gen::derive_seed(seed, 0xB47C));
        std::vector<std::size_t> core_of(ts.size(), kUnassigned);

        // Parity on the empty engine, then across a random placement
        // workout (assignments need not be feasible: the planes must mirror
        // the matrices regardless of schedulability).
        expect_batched_matches_scalar(engine, 0, "empty", tally);
        if (::testing::Test::HasFatalFailure()) return;
        const std::size_t steps = 2 * ts.size();
        for (std::size_t step = 0; step < steps; ++step) {
          const std::size_t t = rng.uniform_int(0, ts.size() - 1);
          if (core_of[t] == kUnassigned) {
            const std::size_t m = rng.uniform_int(0, M - 1);
            engine.commit(t, m);
            core_of[t] = m;
          } else if (rng.bernoulli(0.5) && M > 1) {
            const std::size_t m = rng.uniform_int(0, M - 1);
            engine.relocate(t, m);
            core_of[t] = m;
          } else {
            engine.uncommit(t);
            core_of[t] = kUnassigned;
          }
          const std::size_t probe_task = rng.uniform_int(0, ts.size() - 1);
          expect_batched_matches_scalar(engine, probe_task, "workout", tally);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  if (K >= 2) {
    EXPECT_GT(tally.all_accepted, 0u)
        << "no probe_fits_all call saw Eq. (4) accept every core";
    EXPECT_GT(tally.some_rejected, 0u)
        << "no probe_fits_all call saw Eq. (4) reject a core";
  }
}

std::string grid_name(
    const ::testing::TestParamInfo<std::tuple<Level, std::size_t>>& tp) {
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict
  // misfires on literal-plus-temporary string concatenation at -O2.
  std::string name = "K";
  name += std::to_string(std::get<0>(tp.param));
  name += "_M";
  name += std::to_string(std::get<1>(tp.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchProbeProperty,
    ::testing::Combine(::testing::Values(Level{1}, Level{2}, Level{3},
                                         Level{4}, Level{6}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{8},
                                         std::size_t{13}, std::size_t{64})),
    grid_name);

INSTANTIATE_TEST_SUITE_P(NoLevelCap, BatchProbeProperty,
                         ::testing::Values(std::tuple{Level{20},
                                                      std::size_t{13}}),
                         grid_name);

}  // namespace
}  // namespace mcs::analysis
