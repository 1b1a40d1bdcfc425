#include "mcs/exp/spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "mcs/exp/report.hpp"
#include "mcs/partition/catpa.hpp"

namespace mcs::exp {
namespace {

// The builtin figure specs sweep one axis over the paper's range from the
// paper's defaults.
void expect_default_base(const gen::GenParams& base) {
  const gen::GenParams defaults = default_gen_params();
  EXPECT_EQ(base.num_cores, defaults.num_cores);
  EXPECT_EQ(base.num_levels, defaults.num_levels);
  EXPECT_EQ(base.random_levels, defaults.random_levels);
  EXPECT_EQ(base.nsu, defaults.nsu);
  EXPECT_EQ(base.ifc, defaults.ifc);
  EXPECT_EQ(base.num_tasks, defaults.num_tasks);
  EXPECT_EQ(base.period_classes, defaults.period_classes);
  EXPECT_EQ(base.wcet_spread_lo, defaults.wcet_spread_lo);
  EXPECT_EQ(base.wcet_spread_hi, defaults.wcet_spread_hi);
}

template <typename Range>
void expect_values(const SweepSpec& spec, const Range& range) {
  ASSERT_EQ(spec.values.size(), range.size());
  for (std::size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(spec.values[i], static_cast<double>(range[i])) << "point " << i;
  }
}

TEST(SweepBuilderTest, Fig1PointsFollowNsuRange) {
  const SweepSpec& spec = *find_spec("fig1");
  EXPECT_EQ(spec.axis, Axis::kNsu);
  EXPECT_EQ(spec.x_label, "NSU");
  expect_values(spec, kNsuRange);
  expect_default_base(spec.base);
  EXPECT_FALSE(spec.share_workloads_across_points);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    const SpecPoint pt = spec_point(spec, i, 0.7, 1);
    EXPECT_DOUBLE_EQ(pt.x, kNsuRange[i]);
    EXPECT_DOUBLE_EQ(pt.params.nsu, kNsuRange[i]);
    EXPECT_EQ(pt.params.num_cores, kDefaultCores);
    EXPECT_EQ(pt.seed, gen::derive_seed(1, i));
  }
}

TEST(SweepBuilderTest, Fig2VariesIfcOnly) {
  const SweepSpec& spec = *find_spec("fig2");
  EXPECT_EQ(spec.axis, Axis::kIfc);
  expect_values(spec, kIfcRange);
  expect_default_base(spec.base);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    const SpecPoint pt = spec_point(spec, i, 0.7, 1);
    EXPECT_DOUBLE_EQ(pt.params.ifc, kIfcRange[i]);
    EXPECT_DOUBLE_EQ(pt.params.nsu, kDefaultNsu);
  }
}

TEST(SweepBuilderTest, Fig3BuildsSchemesWithSweptAlpha) {
  const SweepSpec& spec = *find_spec("fig3");
  EXPECT_EQ(spec.axis, Axis::kAlpha);
  expect_values(spec, kAlphaRange);
  expect_default_base(spec.base);
  ASSERT_TRUE(spec.share_workloads_across_points);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    // The paper line-up, with the point's x as CA-TPA's alpha, on the
    // shared workloads.
    const SpecPoint pt = spec_point(spec, i, 0.7, 1);
    ASSERT_EQ(pt.schemes.size(), 5u);
    EXPECT_EQ(pt.schemes[4]->name(), "CA-TPA");
    const auto* catpa =
        dynamic_cast<const partition::CaTpaPartitioner*>(pt.schemes[4].get());
    ASSERT_NE(catpa, nullptr);
    EXPECT_DOUBLE_EQ(catpa->options().alpha, kAlphaRange[i]);
    EXPECT_EQ(pt.seed, 1u);
  }
}

TEST(SweepBuilderTest, Fig4VariesCores) {
  const SweepSpec& spec = *find_spec("fig4");
  EXPECT_EQ(spec.axis, Axis::kCores);
  expect_values(spec, kCoreRange);
  expect_default_base(spec.base);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    EXPECT_EQ(spec_point(spec, i, 0.7, 1).params.num_cores, kCoreRange[i]);
  }
}

TEST(SweepBuilderTest, Fig5VariesLevels) {
  const SweepSpec& spec = *find_spec("fig5");
  EXPECT_EQ(spec.axis, Axis::kLevels);
  expect_values(spec, kLevelRange);
  expect_default_base(spec.base);
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    EXPECT_EQ(spec_point(spec, i, 0.7, 1).params.num_levels, kLevelRange[i]);
  }
}

/// fig1 on a small platform.
SweepSpec small_fig1() {
  SweepSpec spec = *find_spec("fig1");
  spec.base.num_tasks = 20;
  spec.base.num_cores = 2;
  return spec;
}

/// The first two points of small_fig1().
SweepSpec tiny_spec() {
  SweepSpec spec = small_fig1();
  spec.values.resize(2);
  return spec;
}

TEST(SweepRunTest, RunsEveryPointAndReportsProgress) {
  std::vector<std::size_t> progress;
  const SweepResult r =
      run_sweep(tiny_spec(), RunOptions{.trials = 20}, 0.7,
                [&](std::size_t done, std::size_t total) {
                  progress.push_back(done);
                  EXPECT_EQ(total, 2u);
                });
  EXPECT_EQ(r.name, "fig1");
  EXPECT_EQ(r.x_label, "NSU");
  EXPECT_EQ(r.points.size(), 2u);
  EXPECT_EQ(progress, (std::vector<std::size_t>{1, 2}));
  for (const PointResult& pt : r.points) {
    EXPECT_EQ(pt.schemes.size(), 5u);
    EXPECT_EQ(pt.schemes.front().trials, 20u);
  }
}

TEST(SweepRunTest, WorkerCountDoesNotChangeAnyBit) {
  const SweepSpec s = small_fig1();
  // 70 trials: two chunks per point, the second partial.
  const SweepResult one =
      run_sweep(s, RunOptions{.trials = 70, .seed = 3, .threads = 1}, 0.7);
  const SweepResult four =
      run_sweep(s, RunOptions{.trials = 70, .seed = 3, .threads = 4}, 0.7);
  ASSERT_EQ(one.points.size(), s.values.size());
  ASSERT_EQ(four.points.size(), s.values.size());
  for (std::size_t p = 0; p < one.points.size(); ++p) {
    const PointResult& a = one.points[p];
    const PointResult& b = four.points[p];
    EXPECT_EQ(a.x, b.x);
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (std::size_t i = 0; i < a.schemes.size(); ++i) {
      EXPECT_EQ(a.schemes[i].trials, 70u);
      EXPECT_EQ(a.schemes[i].schedulable, b.schemes[i].schedulable);
      EXPECT_EQ(a.schemes[i].u_sys.mean(), b.schemes[i].u_sys.mean());
      EXPECT_EQ(a.schemes[i].u_sys.m2(), b.schemes[i].u_sys.m2());
      EXPECT_EQ(a.schemes[i].u_avg.mean(), b.schemes[i].u_avg.mean());
      EXPECT_EQ(a.schemes[i].imbalance.mean(), b.schemes[i].imbalance.mean());
      EXPECT_EQ(a.schemes[i].imbalance.m2(), b.schemes[i].imbalance.m2());
      EXPECT_EQ(a.schemes[i].probes.mean(), b.schemes[i].probes.mean());
      EXPECT_EQ(a.schemes[i].probes.m2(), b.schemes[i].probes.m2());
    }
  }
}

TEST(SweepRunTest, PointsUseIndependentSeeds) {
  // Two points with identical parameters must still see different workloads;
  // the mean U_sys over schedulable sets is continuous, so identical values
  // would imply identical draws.
  SweepSpec s = tiny_spec();
  s.values[1] = s.values[0];
  const SweepResult r = run_sweep(s, RunOptions{.trials = 60, .seed = 4}, 0.7);
  bool any_diff = false;
  for (std::size_t i = 0; i < r.points[0].schemes.size(); ++i) {
    if (r.points[0].schemes[i].schedulable !=
            r.points[1].schemes[i].schedulable ||
        std::abs(r.points[0].schemes[i].u_sys.mean() -
                 r.points[1].schemes[i].u_sys.mean()) > 1e-12) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SweepRunTest, Fig3SharesWorkloadsSoBaselinesStayFlat) {
  SweepSpec s = *find_spec("fig3");
  s.base.num_tasks = 25;
  s.base.num_cores = 2;
  ASSERT_TRUE(s.share_workloads_across_points);
  s.values.resize(2);
  const SweepResult r = run_sweep(s, RunOptions{.trials = 50, .seed = 6}, 0.7);
  // Scheme index 1 is FFD, which ignores alpha: with common random numbers
  // its aggregates must be bit-identical across the sweep.
  EXPECT_EQ(r.points[0].schemes[1].schedulable,
            r.points[1].schemes[1].schedulable);
  EXPECT_DOUBLE_EQ(r.points[0].schemes[1].u_sys.mean(),
                   r.points[1].schemes[1].u_sys.mean());
}

TEST(ReportTest, PrintFigureContainsAllPanels) {
  const SweepResult r = run_sweep(tiny_spec(), RunOptions{.trials = 10}, 0.7);
  std::ostringstream os;
  print_figure(os, r, "Figure 1");
  const std::string out = os.str();
  EXPECT_NE(out.find("=== Figure 1 ==="), std::string::npos);
  EXPECT_NE(out.find("(a) schedulability ratio"), std::string::npos);
  EXPECT_NE(out.find("(b) system utilization U_sys"), std::string::npos);
  EXPECT_NE(out.find("(c) average core utilization U_avg"), std::string::npos);
  EXPECT_NE(out.find("(d) workload imbalance factor Lambda"),
            std::string::npos);
  EXPECT_NE(out.find("CA-TPA"), std::string::npos);
  EXPECT_NE(out.find("WFD"), std::string::npos);
}

TEST(ReportTest, RatioCi95) {
  EXPECT_DOUBLE_EQ(ratio_ci95(0.5, 0), 0.0);
  EXPECT_NEAR(ratio_ci95(0.5, 100), 1.96 * 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(ratio_ci95(0.0, 100), 0.0);
  EXPECT_DOUBLE_EQ(ratio_ci95(1.0, 100), 0.0);
  EXPECT_GT(ratio_ci95(0.5, 100), ratio_ci95(0.5, 400));
}

TEST(ReportTest, SummaryListsEveryScheme) {
  const SweepResult r = run_sweep(tiny_spec(), RunOptions{.trials = 10}, 0.7);
  std::ostringstream os;
  print_summary(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("weighted schedulability"), std::string::npos);
  for (const char* name : {"WFD", "FFD", "BFD", "Hybrid", "CA-TPA"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST(ReportTest, CsvHasOneRowPerPointScheme) {
  const SweepResult r = run_sweep(tiny_spec(), RunOptions{.trials = 10}, 0.7);
  const std::string path = ::testing::TempDir() + "mcs_sweep_test.csv";
  write_csv(path, r);
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  std::remove(path.c_str());
  EXPECT_EQ(rows, 1u + 2u * 5u);  // header + points x schemes
}

}  // namespace
}  // namespace mcs::exp
