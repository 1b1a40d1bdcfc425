#include "mcs/exp/montecarlo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <stdexcept>
#include <vector>

namespace mcs::exp {
namespace {

gen::GenParams small_params() {
  gen::GenParams p;
  p.num_cores = 4;
  p.num_levels = 3;
  p.nsu = 0.6;
  p.num_tasks = 30;
  return p;
}

TEST(MonteCarloTest, TrialCountsAddUp) {
  const auto schemes = partition::paper_schemes();
  const PointResult pt =
      run_point(small_params(), schemes, RunOptions{.trials = 100}, 0.6);
  ASSERT_EQ(pt.schemes.size(), 5u);
  for (const SchemeAggregate& agg : pt.schemes) {
    EXPECT_EQ(agg.trials, 100u);
    EXPECT_LE(agg.schedulable, agg.trials);
    EXPECT_GE(agg.ratio(), 0.0);
    EXPECT_LE(agg.ratio(), 1.0);
    EXPECT_EQ(agg.u_sys.count(), agg.schedulable);
  }
  EXPECT_DOUBLE_EQ(pt.x, 0.6);
}

TEST(MonteCarloTest, SchemeNamesPreserveOrder) {
  const auto schemes = partition::paper_schemes();
  const PointResult pt =
      run_point(small_params(), schemes, RunOptions{.trials = 10}, 0.0);
  EXPECT_EQ(pt.schemes[0].scheme, "WFD");
  EXPECT_EQ(pt.schemes[1].scheme, "FFD");
  EXPECT_EQ(pt.schemes[2].scheme, "BFD");
  EXPECT_EQ(pt.schemes[3].scheme, "Hybrid");
  EXPECT_EQ(pt.schemes[4].scheme, "CA-TPA");
}

TEST(MonteCarloTest, DeterministicAcrossThreadCounts) {
  const auto schemes = partition::paper_schemes();
  const PointResult a = run_point(
      small_params(), schemes, RunOptions{.trials = 200, .seed = 9, .threads = 1},
      0.0);
  const PointResult b = run_point(
      small_params(), schemes, RunOptions{.trials = 200, .seed = 9, .threads = 3},
      0.0);
  // Bit-exact, not merely close: per-chunk Welford partials are merged in
  // chunk-index order once the point's last chunk finishes, so the thread
  // count cannot perturb a single bit.  The --threads N artifact
  // byte-identity guarantee of run_sweep and run_spec is built on this.
  for (std::size_t s = 0; s < a.schemes.size(); ++s) {
    EXPECT_EQ(a.schemes[s].schedulable, b.schemes[s].schedulable);
    EXPECT_EQ(a.schemes[s].trials, b.schemes[s].trials);
    EXPECT_EQ(a.schemes[s].u_sys.count(), b.schemes[s].u_sys.count());
    EXPECT_EQ(a.schemes[s].u_sys.mean(), b.schemes[s].u_sys.mean());
    EXPECT_EQ(a.schemes[s].u_sys.m2(), b.schemes[s].u_sys.m2());
    EXPECT_EQ(a.schemes[s].imbalance.mean(), b.schemes[s].imbalance.mean());
    EXPECT_EQ(a.schemes[s].imbalance.m2(), b.schemes[s].imbalance.m2());
    EXPECT_EQ(a.schemes[s].probes.mean(), b.schemes[s].probes.mean());
  }
}

/// Every aggregate field, compared bit for bit.
void expect_same_bits(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.x, b.x);
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (std::size_t s = 0; s < a.schemes.size(); ++s) {
    const SchemeAggregate& x = a.schemes[s];
    const SchemeAggregate& y = b.schemes[s];
    EXPECT_EQ(x.scheme, y.scheme);
    EXPECT_EQ(x.trials, y.trials);
    EXPECT_EQ(x.schedulable, y.schedulable);
    for (const auto member : {&SchemeAggregate::u_sys, &SchemeAggregate::u_avg,
                              &SchemeAggregate::imbalance,
                              &SchemeAggregate::probes}) {
      EXPECT_EQ((x.*member).count(), (y.*member).count()) << x.scheme;
      EXPECT_EQ((x.*member).mean(), (y.*member).mean()) << x.scheme;
      EXPECT_EQ((x.*member).m2(), (y.*member).m2()) << x.scheme;
      EXPECT_EQ((x.*member).raw_min(), (y.*member).raw_min()) << x.scheme;
      EXPECT_EQ((x.*member).raw_max(), (y.*member).raw_max()) << x.scheme;
    }
  }
}

TEST(MonteCarloTest, PartialLastChunkAndMoreWorkersThanChunks) {
  // 100 trials are one full 64-trial chunk plus a partial one; 8 workers
  // outnumber the 2 chunks.
  const auto schemes = partition::paper_schemes();
  const PointResult one = run_point(
      small_params(), schemes,
      RunOptions{.trials = 100, .seed = 5, .threads = 1}, 0.6);
  const PointResult eight = run_point(
      small_params(), schemes,
      RunOptions{.trials = 100, .seed = 5, .threads = 8}, 0.6);
  for (const SchemeAggregate& agg : one.schemes) {
    EXPECT_EQ(agg.trials, 100u);
    EXPECT_EQ(agg.probes.count(), 100u);
  }
  expect_same_bits(one, eight);
}

TEST(RunPointsTest, HandsBackEveryPointOnceAsRunPointComputesIt) {
  const auto schemes = partition::paper_schemes();
  gen::GenParams light = small_params();
  light.nsu = 0.4;
  gen::GenParams heavy = small_params();
  heavy.nsu = 0.8;
  const std::vector<PointWork> work = {
      {.index = 7, .x = 0.4, .params = &light, .schemes = &schemes, .seed = 1},
      {.index = 2, .x = 0.8, .params = &heavy, .schemes = &schemes, .seed = 2},
      {.index = 5, .x = 0.4, .params = &light, .schemes = &schemes, .seed = 3}};
  std::map<std::size_t, PointResult> seen;
  std::atomic<int> inside{0};
  run_points(work, 130, 4, false, [&](PointCheckpoint point) {
    EXPECT_EQ(inside.fetch_add(1), 0) << "on_point calls overlapped";
    EXPECT_TRUE(point.counters.empty());
    EXPECT_TRUE(seen.emplace(point.index, std::move(point.result)).second)
        << "point " << point.index << " handed back twice";
    inside.fetch_sub(1);
  });
  ASSERT_EQ(seen.size(), work.size());
  for (const PointWork& w : work) {
    const PointResult alone = run_point(
        *w.params, schemes,
        RunOptions{.trials = 130, .seed = w.seed, .threads = 1}, w.x);
    expect_same_bits(seen.at(w.index), alone);
  }
}

TEST(RunPointsTest, RethrowsACallbackFailureAfterDraining) {
  const auto schemes = partition::paper_schemes();
  const gen::GenParams params = small_params();
  std::vector<PointWork> work;
  for (std::size_t i = 0; i < 4; ++i) {
    work.push_back({.index = i, .x = 0.0, .params = &params,
                    .schemes = &schemes, .seed = i});
  }
  std::size_t delivered = 0;
  EXPECT_THROW(run_points(work, 10, 4, false,
                          [&](const PointCheckpoint& point) {
                            ++delivered;
                            if (point.index == 1) {
                              throw std::runtime_error("append failed");
                            }
                          }),
               std::runtime_error);
  EXPECT_EQ(delivered, work.size());
}

TEST(MonteCarloTest, DifferentSeedsGiveDifferentWorkloads) {
  const auto schemes = partition::paper_schemes();
  const PointResult a = run_point(small_params(), schemes,
                                  RunOptions{.trials = 150, .seed = 1}, 0.0);
  const PointResult b = run_point(small_params(), schemes,
                                  RunOptions{.trials = 150, .seed = 2}, 0.0);
  bool any_diff = false;
  for (std::size_t s = 0; s < a.schemes.size(); ++s) {
    if (a.schemes[s].schedulable != b.schemes[s].schedulable) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// The paper's headline claim at a statistically robust scale: CA-TPA's
// schedulability ratio beats every baseline at moderate-to-high load.
TEST(MonteCarloTest, CaTpaDominatesBaselinesAtHighLoad) {
  gen::GenParams params = small_params();
  params.num_cores = 8;
  params.num_levels = 4;
  params.nsu = 0.65;
  params.num_tasks = 0;  // paper's N ~ U{40..200}
  const auto schemes = partition::paper_schemes(0.7);
  const PointResult pt =
      run_point(params, schemes, RunOptions{.trials = 400, .seed = 3}, 0.65);
  const SchemeAggregate& catpa = pt.schemes[4];
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GE(catpa.ratio(), pt.schemes[s].ratio())
        << "CA-TPA lost to " << pt.schemes[s].scheme;
  }
  // WFD is the weakest packer in the paper's experiments.
  EXPECT_LT(pt.schemes[0].ratio(), catpa.ratio());
}

}  // namespace
}  // namespace mcs::exp
