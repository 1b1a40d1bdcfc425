// The Monte-Carlo trial loop of the paper's line-up runs without a heap
// allocation once its buffers have grown.  One PlacementEngine runs WFD,
// FFD, BFD, Hybrid and CA-TPA on recycled gen::TrialArena trials, and a
// kept analysis::MetricsScratch takes each success's metrics, as
// exp::run_trials does.  This executable replaces the global operator new
// with a counting one, so a scheme that builds a vector per run or per task
// shows up as a nonzero count.
//
// The counted pass replays the trials of the warm-up pass: every buffer has
// already grown to what those trials need, so any count is an allocation
// that the steady state of a sweep repeats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "mcs/analysis/metrics.hpp"
#include "mcs/gen/taskset_generator.hpp"
#include "mcs/partition/registry.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mcs::partition {
namespace {

TEST(AllocationFreeTest, PaperSchemesRunRecycledTrialsWithoutAllocating) {
  // The sweep-paper shape: M = 8, K = 4, N ~ U{40..200}.
  gen::GenParams params;
  params.num_cores = 8;
  params.num_levels = 4;
  params.nsu = 0.7;
  const PartitionerList schemes =
      make_scheme_list({"WFD", "FFD", "BFD", "Hybrid", "CA-TPA"});
  constexpr std::uint64_t kTrials = 200;

  analysis::PlacementEngine engine;
  gen::TrialArena arena;
  analysis::MetricsScratch metrics;
  std::vector<std::uint64_t> allocations(schemes.size(), 0);
  std::uint64_t successes = 0;
  for (const bool counted : {false, true}) {
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      const TaskSet& ts = arena.generate_trial(params, 3, trial);
      for (std::size_t s = 0; s < schemes.size(); ++s) {
        g_allocations.store(0);
        g_counting.store(counted);
        engine.reset(ts, params.num_cores);
        const PlacementOutcome outcome = schemes[s]->run_on(engine);
        if (outcome.success) {
          (void)analysis::partition_metrics(engine.partition(), metrics);
        }
        g_counting.store(false);
        allocations[s] += g_allocations.load();
        if (counted && outcome.success) ++successes;
      }
    }
  }
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    EXPECT_EQ(allocations[s], 0u)
        << schemes[s]->name() << " allocated in " << kTrials
        << " recycled trials";
  }
  EXPECT_GT(successes, 0u) << "no trial reached the metrics";
}

}  // namespace
}  // namespace mcs::partition
