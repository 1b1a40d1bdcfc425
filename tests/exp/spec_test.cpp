#include "mcs/exp/spec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "mcs/partition/catpa.hpp"
#include "mcs/partition/classic.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {
namespace {

// Bitwise equality (NaN-safe) for golden comparisons.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_welford(const util::Welford& a, const util::Welford& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_TRUE(same_bits(a.mean(), b.mean()));
  EXPECT_TRUE(same_bits(a.m2(), b.m2()));
  EXPECT_TRUE(same_bits(a.raw_min(), b.raw_min()));
  EXPECT_TRUE(same_bits(a.raw_max(), b.raw_max()));
}

void expect_same_results(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_TRUE(same_bits(a.points[i].x, b.points[i].x));
    ASSERT_EQ(a.points[i].schemes.size(), b.points[i].schemes.size());
    for (std::size_t s = 0; s < a.points[i].schemes.size(); ++s) {
      const SchemeAggregate& sa = a.points[i].schemes[s];
      const SchemeAggregate& sb = b.points[i].schemes[s];
      EXPECT_EQ(sa.scheme, sb.scheme);
      EXPECT_EQ(sa.trials, sb.trials);
      EXPECT_EQ(sa.schedulable, sb.schedulable);
      expect_same_welford(sa.u_sys, sb.u_sys);
      expect_same_welford(sa.u_avg, sb.u_avg);
      expect_same_welford(sa.imbalance, sb.imbalance);
      expect_same_welford(sa.probes, sb.probes);
    }
  }
}

RunOptions small_run() { return {.trials = 40, .seed = 1, .threads = 2}; }

TEST(SpecRegistryTest, BuiltinSpecsAreComplete) {
  const std::vector<std::string> expected{"fig1", "fig2", "fig3", "fig4",
                                          "fig5", "a1",   "a2",   "a3",
                                          "a4",   "h1",   "h2"};
  ASSERT_EQ(builtin_specs().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(builtin_specs()[i].name, expected[i]);
  }
}

TEST(SpecRegistryTest, FindSpecIsCaseInsensitive) {
  EXPECT_NE(find_spec("fig1"), nullptr);
  EXPECT_NE(find_spec("FIG1"), nullptr);
  EXPECT_NE(find_spec("A3"), nullptr);
  EXPECT_EQ(find_spec("fig9"), nullptr);
  EXPECT_EQ(find_spec(""), nullptr);
}

TEST(SpecRegistryTest, SpecNamesListsEveryBuiltin) {
  const std::string names = spec_names();
  for (const SweepSpec& spec : builtin_specs()) {
    EXPECT_NE(names.find(spec.name), std::string::npos) << spec.name;
  }
}

// Runs every point of an NSU-axis spec with an explicit line-up in place
// of its spec strings, through run_points: the params and seeds a spec
// point gets, built by hand.
SweepResult run_explicit_lineup(const SweepSpec& spec,
                                const partition::PartitionerList& lineup) {
  EXPECT_EQ(spec.axis, Axis::kNsu);
  const RunOptions options = small_run();
  std::vector<gen::GenParams> params(spec.values.size(), spec.base);
  std::vector<PointWork> work;
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    params[i].nsu = spec.values[i];
    work.push_back(PointWork{.index = i,
                             .x = spec.values[i],
                             .params = &params[i],
                             .schemes = &lineup,
                             .seed = gen::derive_seed(options.seed, i)});
  }
  SweepResult result{.name = spec.name,
                     .x_label = spec.x_label,
                     .points = std::vector<PointResult>(spec.values.size())};
  run_points(work, options.trials, options.threads, false,
             [&](PointCheckpoint point) {
               result.points[point.index] = std::move(point.result);
             });
  return result;
}

// The a4 spec strings must reproduce the original ablation line-up
// (explicit ClassicPartitioner configurations) exactly.
TEST(SpecGoldenParityTest, A4MatchesExplicitLineup) {
  using namespace mcs::partition;
  PartitionerList lineup;
  lineup.push_back(std::make_unique<ClassicPartitioner>(
      FitRule::kFirst, TestStrength::kBasicOnly));
  lineup.push_back(std::make_unique<ClassicPartitioner>(
      FitRule::kFirst, TestStrength::kBasicThenImproved));
  lineup.push_back(std::make_unique<ClassicPartitioner>(
      FitRule::kWorst, TestStrength::kBasicOnly));
  lineup.push_back(std::make_unique<ClassicPartitioner>(
      FitRule::kWorst, TestStrength::kBasicThenImproved));
  const SweepSpec& spec = *find_spec("a4");
  expect_same_results(run_explicit_lineup(spec, lineup),
                      run_sweep(spec, small_run(), 0.7));
}

TEST(SpecGoldenParityTest, A1MatchesExplicitLineup) {
  using namespace mcs::partition;
  PartitionerList lineup;
  lineup.push_back(std::make_unique<CaTpaPartitioner>(
      CaTpaOptions{.use_imbalance_control = false}));
  for (double a : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    lineup.push_back(std::make_unique<CaTpaPartitioner>(CaTpaOptions{
        .alpha = a,
        .display_name = "CA-TPA(a=" + util::format_double(a, 1) + ")"}));
  }
  const SweepSpec& spec = *find_spec("a1");
  expect_same_results(run_explicit_lineup(spec, lineup),
                      run_sweep(spec, small_run(), 0.7));
}

TEST(SchemeSpecTest, ParsesCaTpaOptions) {
  using namespace mcs::partition;
  const auto scheme = make_scheme_spec("CA-TPA(a=0.5,first,repair)", 0.7);
  const auto* catpa = dynamic_cast<const CaTpaPartitioner*>(scheme.get());
  ASSERT_NE(catpa, nullptr);
  EXPECT_DOUBLE_EQ(catpa->options().alpha, 0.5);
  EXPECT_EQ(catpa->options().probe_policy,
            analysis::ProbePolicy::kFirstFeasible);
  EXPECT_TRUE(catpa->options().enable_repair);
  EXPECT_EQ(scheme->name(), "CA-TPA(a=0.5,first,repair)");
}

TEST(SchemeSpecTest, Eq4VariantsAndPassThrough) {
  using namespace mcs::partition;
  EXPECT_EQ(make_scheme_spec("FFD/eq4")->name(), "FFD/eq4");
  EXPECT_EQ(make_scheme_spec("WFD/eq4")->name(), "WFD/eq4");
  EXPECT_EQ(make_scheme_spec("CA-TPA/noBal")->name(), "CA-TPA/noBal");
  EXPECT_EQ(make_scheme_spec("Hybrid")->name(), "Hybrid");
}

TEST(SchemeSpecTest, RejectsUnknownSpecs) {
  using namespace mcs::partition;
  EXPECT_THROW((void)make_scheme_spec("CA-TPA(bogus)"), std::invalid_argument);
  EXPECT_THROW((void)make_scheme_spec("CA-TPA(a=zzz)"), std::invalid_argument);
  EXPECT_THROW((void)make_scheme_spec("NotAScheme"), std::invalid_argument);
}

TEST(SpecFingerprintTest, StableAndSensitive) {
  const SweepSpec& fig1 = *find_spec("fig1");
  const std::string base = spec_fingerprint(fig1, 2000, 1, 0.7);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(base, spec_fingerprint(fig1, 2000, 1, 0.7));
  EXPECT_NE(base, spec_fingerprint(fig1, 2001, 1, 0.7));
  EXPECT_NE(base, spec_fingerprint(fig1, 2000, 2, 0.7));
  EXPECT_NE(base, spec_fingerprint(fig1, 2000, 1, 0.9));
  EXPECT_NE(base, spec_fingerprint(*find_spec("fig2"), 2000, 1, 0.7));
}

}  // namespace
}  // namespace mcs::exp
