// Property test for the task x core probe tile CA-TPA-R's repair
// (partition/catpa.cpp, try_repair) fills before its victim loop: one
// probe_all_cores call per task, each writing its own row of one shared
// T x M buffer, with no plane change between the calls.  Across a grid of
// K in {1, 2, 3, 4, 6} x M in {1, 2, 3, 4, 5, 8, 13, 64} x
// T in {1, 2, 3, 8, 17} (duplicate tasks allowed), every row of the tile
// must be BITWISE identical to a batched call for the same task made on
// its own, in reverse order — so no call's result depends on what the call
// before it left in the engine's scratch (a task of level l writes only
// the first l of the K per-level slots) — on empty, partially filled and
// churned (commit/relocate interleaved) engine states.  M in {1, 2, 3, 5,
// 13} leaves scalar lanes after the packs (AVX2 width 4, SSE2 width 2);
// NoLevelCap adds K = 20.  A tile must advance probes() by exactly
// T x num_cores() (the repair charges members x cores probes per dest), and
// every forced kernel backend available on the host must reproduce the
// default backend's tile bit for bit.  The suite keeps the name it had
// when a dedicated 2-D kernel filled the tile.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mcs/analysis/placement.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/gen/taskset_generator.hpp"

namespace mcs::analysis {
namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

using GridParam = std::tuple<Level, std::size_t, std::size_t>;  // K, M, T

class BatchProbe2dProperty : public ::testing::TestWithParam<GridParam> {};

/// Puts the runtime-detected lane backend back, however the test ends.
struct BackendRestore {
  ~BackendRestore() { set_batch_probe_backend("auto"); }
};

/// Fills `tile` the way the repair does: row i is the probe_all_cores
/// result of tasks[i], written into its own num_cores() slice.
void fill_tile(PlacementEngine& engine, const std::vector<std::size_t>& tasks,
               ProbePolicy policy, std::vector<ProbeResult>& tile) {
  const std::size_t cores = engine.num_cores();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    engine.probe_all_cores(tasks[i], policy,
                           std::span(tile).subspan(i * cores, cores));
  }
}

void expect_tile_matches_1d(PlacementEngine& engine,
                            const std::vector<std::size_t>& tasks,
                            const char* when) {
  const std::size_t cores = engine.num_cores();
  const std::size_t T = tasks.size();
  std::vector<ProbeResult> tile(T * cores);
  std::vector<ProbeResult> row(cores);

  const ProbePolicy policies[] = {ProbePolicy::kFirstFeasible,
                                  ProbePolicy::kMinOverFeasible,
                                  ProbePolicy::kMaxOverFeasible};
  for (const ProbePolicy policy : policies) {
    const std::size_t before = engine.probes();
    fill_tile(engine, tasks, policy, tile);
    ASSERT_EQ(engine.probes(), before + T * cores)
        << when << ": one tile must count tasks x cores probes";
    for (std::size_t i = T; i-- > 0;) {
      engine.probe_all_cores(tasks[i], policy, row);
      for (std::size_t m = 0; m < cores; ++m) {
        const ProbeResult& got = tile[i * cores + m];
        ASSERT_EQ(row[m].feasible, got.feasible)
            << when << ": row " << i << " (task " << tasks[i] << ") core "
            << m << " policy " << static_cast<int>(policy);
        ASSERT_TRUE(bits_equal(row[m].new_util, got.new_util))
            << when << ": new_util " << got.new_util << " vs 1-D "
            << row[m].new_util << " (row " << i << " core " << m << ")";
        ASSERT_TRUE(bits_equal(row[m].increment, got.increment))
            << when << ": increment " << got.increment << " vs 1-D "
            << row[m].increment << " (row " << i << " core " << m << ")";
      }
    }
  }
}

TEST_P(BatchProbe2dProperty, BitIdenticalToBatched1d) {
  const Level K = std::get<0>(GetParam());
  const std::size_t M = std::get<1>(GetParam());
  const std::size_t T = std::get<2>(GetParam());

  gen::GenParams gp;
  gp.num_cores = M;
  gp.num_levels = K;
  gp.num_tasks = 24;
  gp.nsu = 0.7;

  const TaskSet ts = gen::generate_trial(gp, 1, 0);
  PlacementEngine engine(ts, M);
  gen::Rng rng(gen::derive_seed(1, 0x2D));
  std::vector<std::size_t> core_of(ts.size(), kUnassigned);
  std::vector<std::size_t> tasks(T);

  const auto draw_tasks = [&] {
    for (std::size_t i = 0; i < T; ++i) {
      tasks[i] = rng.uniform_int(0, ts.size() - 1);  // duplicates allowed
    }
  };

  draw_tasks();
  expect_tile_matches_1d(engine, tasks, "empty");
  if (::testing::Test::HasFatalFailure()) return;

  // Interleave commits, relocations and uncommits with tiles: a tile
  // probed right after a mutation sees the same planes the 1-D reference
  // sees, so parity must survive arbitrary churn.
  const std::size_t steps = ts.size();
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
    if (step % 3 != 0) continue;  // bound the grid's runtime
    draw_tasks();
    expect_tile_matches_1d(engine, tasks, "workout");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(BatchProbe2dProperty, ForcedBackendsAgreeBitwise) {
  const Level K = std::get<0>(GetParam());
  const std::size_t M = std::get<1>(GetParam());
  const std::size_t T = std::get<2>(GetParam());

  gen::GenParams gp;
  gp.num_cores = M;
  gp.num_levels = K;
  gp.num_tasks = 24;
  gp.nsu = 0.7;

  const TaskSet ts = gen::generate_trial(gp, 3, 0);
  PlacementEngine engine(ts, M);
  gen::Rng rng(gen::derive_seed(3, 0x51D));
  // A half-filled engine so the planes are nontrivial.
  for (std::size_t t = 0; t < ts.size(); t += 2) {
    engine.commit(t, rng.uniform_int(0, M - 1));
  }
  std::vector<std::size_t> tasks(T);
  for (std::size_t i = 0; i < T; ++i) {
    tasks[i] = rng.uniform_int(0, ts.size() - 1);
  }

  const BackendRestore restore;
  std::vector<ProbeResult> expect(T * M);
  std::vector<ProbeResult> got(T * M);
  ASSERT_TRUE(set_batch_probe_backend("auto"));
  const std::string default_backend = batch_probe_backend();
  fill_tile(engine, tasks, ProbePolicy::kMinOverFeasible, expect);

  for (const char* name : {"scalar", "sse2", "avx2"}) {
    if (!set_batch_probe_backend(name)) continue;  // not on this host
    fill_tile(engine, tasks, ProbePolicy::kMinOverFeasible, got);
    for (std::size_t i = 0; i < T * M; ++i) {
      ASSERT_EQ(expect[i].feasible, got[i].feasible)
          << name << " vs " << default_backend << " at lane " << i;
      ASSERT_TRUE(bits_equal(expect[i].new_util, got[i].new_util))
          << name << " vs " << default_backend << " at lane " << i << ": "
          << got[i].new_util << " vs " << expect[i].new_util;
      ASSERT_TRUE(bits_equal(expect[i].increment, got[i].increment))
          << name << " vs " << default_backend << " at lane " << i;
    }
  }
}

std::string grid_name(const ::testing::TestParamInfo<GridParam>& tp) {
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict
  // misfires on literal-plus-temporary string concatenation at -O2.
  std::string name = "K";
  name += std::to_string(std::get<0>(tp.param));
  name += "_M";
  name += std::to_string(std::get<1>(tp.param));
  name += "_T";
  name += std::to_string(std::get<2>(tp.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BatchProbe2dProperty,
    ::testing::Combine(::testing::Values(Level{1}, Level{2}, Level{3},
                                         Level{4}, Level{6}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{8},
                                         std::size_t{13}, std::size_t{64}),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3}, std::size_t{8},
                                         std::size_t{17})),
    grid_name);

INSTANTIATE_TEST_SUITE_P(NoLevelCap, BatchProbe2dProperty,
                         ::testing::Values(GridParam{Level{20},
                                                     std::size_t{13},
                                                     std::size_t{17}}),
                         grid_name);

}  // namespace
}  // namespace mcs::analysis
