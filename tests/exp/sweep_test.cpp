#include "mcs/exp/sweep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "mcs/exp/report.hpp"

namespace mcs::exp {
namespace {

TEST(SweepBuilderTest, Fig1PointsFollowNsuRange) {
  const Sweep s = make_fig1_nsu(default_gen_params(), 0.7);
  ASSERT_EQ(s.points.size(), kNsuRange.size());
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.points[i].x, kNsuRange[i]);
    EXPECT_DOUBLE_EQ(s.points[i].params.nsu, kNsuRange[i]);
    EXPECT_EQ(s.points[i].params.num_cores, kDefaultCores);
  }
  EXPECT_EQ(s.x_label, "NSU");
}

TEST(SweepBuilderTest, Fig2VariesIfcOnly) {
  const Sweep s = make_fig2_ifc(default_gen_params(), 0.7);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(s.points[i].params.ifc, kIfcRange[i]);
    EXPECT_DOUBLE_EQ(s.points[i].params.nsu, kDefaultNsu);
  }
}

TEST(SweepBuilderTest, Fig3BuildsSchemesWithSweptAlpha) {
  const Sweep s = make_fig3_alpha(default_gen_params());
  ASSERT_EQ(s.points.size(), kAlphaRange.size());
  // The scheme factory must exist and produce the 5-scheme line-up.
  const auto schemes = s.points.front().make_schemes();
  EXPECT_EQ(schemes.size(), 5u);
  EXPECT_EQ(schemes[4]->name(), "CA-TPA");
}

TEST(SweepBuilderTest, Fig4VariesCores) {
  const Sweep s = make_fig4_cores(default_gen_params(), 0.7);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    EXPECT_EQ(s.points[i].params.num_cores, kCoreRange[i]);
  }
}

TEST(SweepBuilderTest, Fig5VariesLevels) {
  const Sweep s = make_fig5_levels(default_gen_params(), 0.7);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    EXPECT_EQ(s.points[i].params.num_levels, kLevelRange[i]);
  }
}

Sweep tiny_sweep() {
  gen::GenParams params = default_gen_params();
  params.num_tasks = 20;
  params.num_cores = 2;
  Sweep s = make_fig1_nsu(params, 0.7);
  s.points.resize(2);
  return s;
}

TEST(SweepRunTest, RunsEveryPointAndReportsProgress) {
  std::vector<std::size_t> progress;
  const SweepResult r =
      run_sweep(tiny_sweep(), RunOptions{.trials = 20},
                [&](std::size_t done, std::size_t total) {
                  progress.push_back(done);
                  EXPECT_EQ(total, 2u);
                });
  EXPECT_EQ(r.points.size(), 2u);
  EXPECT_EQ(progress, (std::vector<std::size_t>{1, 2}));
  for (const PointResult& pt : r.points) {
    EXPECT_EQ(pt.schemes.size(), 5u);
    EXPECT_EQ(pt.schemes.front().trials, 20u);
  }
}

TEST(SweepRunTest, WorkerCountDoesNotChangeAnyBit) {
  gen::GenParams params = default_gen_params();
  params.num_tasks = 20;
  params.num_cores = 2;
  const Sweep s = make_fig1_nsu(params, 0.7);
  // 70 trials: two chunks per point, the second partial.
  const SweepResult one =
      run_sweep(s, RunOptions{.trials = 70, .seed = 3, .threads = 1});
  const SweepResult four =
      run_sweep(s, RunOptions{.trials = 70, .seed = 3, .threads = 4});
  ASSERT_EQ(one.points.size(), s.points.size());
  ASSERT_EQ(four.points.size(), s.points.size());
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
  Sweep s = tiny_sweep();
  s.points[1] = s.points[0];
  const SweepResult r = run_sweep(s, RunOptions{.trials = 60, .seed = 4});
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
  gen::GenParams base = default_gen_params();
  base.num_tasks = 25;
  base.num_cores = 2;
  Sweep s = make_fig3_alpha(base);
  ASSERT_TRUE(s.share_workloads_across_points);
  s.points.resize(2);
  const SweepResult r = run_sweep(s, RunOptions{.trials = 50, .seed = 6});
  // Scheme index 1 is FFD, which ignores alpha: with common random numbers
  // its aggregates must be bit-identical across the sweep.
  EXPECT_EQ(r.points[0].schemes[1].schedulable,
            r.points[1].schemes[1].schedulable);
  EXPECT_DOUBLE_EQ(r.points[0].schemes[1].u_sys.mean(),
                   r.points[1].schemes[1].u_sys.mean());
}

TEST(ReportTest, PrintFigureContainsAllPanels) {
  const SweepResult r = run_sweep(tiny_sweep(), RunOptions{.trials = 10});
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
  const SweepResult r = run_sweep(tiny_sweep(), RunOptions{.trials = 10});
  std::ostringstream os;
  print_summary(os, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("weighted schedulability"), std::string::npos);
  for (const char* name : {"WFD", "FFD", "BFD", "Hybrid", "CA-TPA"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST(ReportTest, CsvHasOneRowPerPointScheme) {
  const SweepResult r = run_sweep(tiny_sweep(), RunOptions{.trials = 10});
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
