// One PlacementEngine runs a line-up of schemes on successive trials of one
// gen::TrialArena, the way the sweep harness and perfbench drive it.  The
// arena refills one TaskSet object for every trial, so the engine's cached
// task orders must follow the set's serial, not its address: every outcome,
// probe count and partition must equal a fresh Partitioner::run (which
// binds a new engine) on a copy of the set.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"

namespace mcs::partition {
namespace {

void expect_shared_engine_matches_fresh_runs(
    const gen::GenParams& params, const std::vector<std::string>& specs,
    std::uint64_t trials) {
  const PartitionerList schemes = make_scheme_list(specs);
  analysis::PlacementEngine engine;
  gen::TrialArena arena;
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const TaskSet& ts = arena.generate_trial(params, 11, trial);
    const TaskSet copy = ts;
    for (const auto& scheme : schemes) {
      engine.reset(ts, params.num_cores);
      const PlacementOutcome shared = scheme->run_on(engine);
      const PartitionResult fresh = scheme->run(copy, params.num_cores);
      const std::string where =
          scheme->name() + ", trial " + std::to_string(trial);
      ASSERT_EQ(shared.success, fresh.success) << where;
      ASSERT_EQ(shared.failed_task, fresh.failed_task) << where;
      ASSERT_EQ(engine.probes(), fresh.probes) << where;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(engine.partition().core_of(i), fresh.partition.core_of(i))
            << where << ", task " << i;
      }
    }
  }
}

TEST(SharedEngineTest, PaperSchemesOnRecycledTrialsMatchFreshRuns) {
  gen::GenParams params;
  params.num_cores = 8;
  params.num_levels = 4;
  params.num_tasks = 80;
  params.nsu = 0.75;
  expect_shared_engine_matches_fresh_runs(
      params,
      {"WFD", "FFD", "BFD", "WFD/eq4", "FFD/eq4", "BFD/eq4", "Hybrid",
       "CA-TPA", "CA-TPA(maxutil)"},
      24);
}

TEST(SharedEngineTest, RandomLevelsOnRecycledTrialsMatchFreshRuns) {
  gen::GenParams params;
  params.num_cores = 4;
  params.random_levels = true;
  params.num_tasks = 40;
  params.nsu = 0.8;
  expect_shared_engine_matches_fresh_runs(
      params, {"Hybrid", "CA-TPA", "FFD", "CA-TPA(maxutil)", "WFD"}, 24);
}

TEST(SharedEngineTest, DemandFfdOnRecycledTrialsMatchesFreshRuns) {
  gen::GenParams params;
  params.num_cores = 2;
  params.num_levels = 2;
  params.num_tasks = 16;
  params.nsu = 0.75;
  expect_shared_engine_matches_fresh_runs(params,
                                          {"DBF-FFD", "FFD", "GE-FFD"}, 12);
}

}  // namespace
}  // namespace mcs::partition
