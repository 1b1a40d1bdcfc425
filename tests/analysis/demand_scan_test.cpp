// Bit-for-bit parity of the demand scan itself.  demand::first_violation
// carries the demand from one breakpoint to the next and falls back to the
// exact sum only where the carried one might misjudge; the frozen copy in
// demand_reference.* takes the exact sum everywhere.  The gates use only a
// scan's verdict in their uniform tier, so demand_parity_test would miss a
// scan that returned another t with the same verdict; this test compares
// the returned t itself, for both formulas, over generated curve sets and
// five adversarial families.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "demand_reference.hpp"
#include "mcs/analysis/demand_core.hpp"
#include "mcs/gen/rng.hpp"
#include "mcs/gen/taskset_generator.hpp"

namespace mcs::analysis {
namespace {

using demand::Curve;
using demand::Formula;

enum Family : std::size_t {
  kGenerated,     // curves of generated tasks at random scales
  kCommensurate,  // exact multiples of one base: breakpoints coincide
  kDecimal,       // decimal periods, inexact in binary: lanes drift
  kShortPeriod,   // periods below 1: many steps before the bound
  kCreditAtCost,  // credits at or just below the cost
  kNearTie,       // demand within 1e-12 of t + 1e-9 at some breakpoint
  kFamilies
};
constexpr std::array<const char*, kFamilies> kFamilyNames{
    "generated", "commensurate", "decimal", "short-period", "credit-at-cost",
    "near-tie"};

struct CurveSet {
  std::vector<Curve> curves;
  double bound = 0.0;
};

std::string describe(const CurveSet& set) {
  std::ostringstream out;
  out << std::hexfloat << "bound=" << set.bound << " curves:";
  for (const Curve& c : set.curves) {
    out << " {d0=" << c.d0 << " T=" << c.period << " C=" << c.cost
        << " credit=" << c.credit << '}';
  }
  return out.str();
}

/// Scales the costs so that sum(cost / period) is `load`.
void set_load(std::vector<Curve>& curves, double load) {
  double u = 0.0;
  for (const Curve& c : curves) u += c.cost / c.period;
  for (Curve& c : curves) c.cost *= load / u;
}

/// Gives about half the curves a credit of `fraction` of their cost.
void add_credits(std::vector<Curve>& curves, gen::Rng& rng) {
  for (Curve& c : curves) {
    if (rng.uniform(0.0, 1.0) < 0.5) {
      c.credit = std::min(c.cost * rng.uniform(0.0, 1.0), c.period * 0.99);
    }
  }
}

/// n curves with periods base * m (m in [1, 8]) and offsets base * j, all
/// exact in binary, so many breakpoints of different curves coincide.
CurveSet commensurate(gen::Rng& rng) {
  constexpr std::array<double, 4> kBases{1.0, 0.5, 4.0, 0.25};
  const double base = kBases[rng.uniform_int(0, kBases.size() - 1)];
  CurveSet set;
  const std::uint64_t n = rng.uniform_int(2, 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto m = static_cast<double>(rng.uniform_int(1, 8));
    const auto j = static_cast<double>(rng.uniform_int(0, 8));
    set.curves.push_back({base * std::min(j, m), base * m,
                          rng.uniform(0.05, 1.0), 0.0});
  }
  set_load(set.curves, rng.uniform(0.6, 1.1));
  add_credits(set.curves, rng);
  set.bound = base * static_cast<double>(rng.uniform_int(4, 40));
  return set;
}

/// Periods and offsets that are multiples of 0.1, computed both as m * 0.1
/// and as m / 10.0: breakpoints that coincide in decimal miss each other by
/// an ulp or two, and accumulated lanes drift from d0 + k * period.
CurveSet decimal(gen::Rng& rng) {
  const auto tenths = [&](std::uint64_t lo, std::uint64_t hi) {
    const auto m = static_cast<double>(rng.uniform_int(lo, hi));
    return rng.uniform(0.0, 1.0) < 0.5 ? m * 0.1 : m / 10.0;
  };
  CurveSet set;
  const std::uint64_t n = rng.uniform_int(2, 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double period = tenths(1, 30);
    set.curves.push_back({std::min(tenths(0, 30), period), period,
                          rng.uniform(0.05, 1.0), 0.0});
  }
  set_load(set.curves, rng.uniform(0.6, 1.1));
  add_credits(set.curves, rng);
  set.bound = tenths(10, 200);
  return set;
}

/// Periods in [0.05, 1) up to a bound of 2..20: hundreds of steps a lane.
CurveSet short_period(gen::Rng& rng) {
  CurveSet set;
  const std::uint64_t n = rng.uniform_int(2, 6);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double period = rng.uniform(0.05, 1.0);
    set.curves.push_back({rng.uniform(0.0, period), period,
                          rng.uniform(0.05, 1.0), 0.0});
  }
  set_load(set.curves, rng.uniform(0.6, 1.1));
  add_credits(set.curves, rng);
  set.bound = rng.uniform(2.0, 20.0);
  return set;
}

/// Credits equal to the cost or an ulp or a few below it, some with
/// C(HI) = C(LO) as a HI-mode curve of a task with one WCET would have.
/// A few credits reach the period, where the scan must take the exact sum.
CurveSet credit_at_cost(gen::Rng& rng) {
  CurveSet set;
  const std::uint64_t n = rng.uniform_int(1, 8);
  for (std::uint64_t i = 0; i < n; ++i) {
    const double period = rng.uniform(1.0, 200.0);
    set.curves.push_back({rng.uniform(0.0, period), period,
                          rng.uniform(0.05, 1.0), 0.0});
  }
  set_load(set.curves, rng.uniform(0.6, 1.1));
  for (Curve& c : set.curves) {
    switch (rng.uniform_int(0, 4)) {
      case 0: c.credit = c.cost; break;
      case 1: c.credit = std::nextafter(c.cost, 0.0); break;
      case 2: c.credit = c.cost * (1.0 - 4e-16); break;
      case 3: c.credit = c.cost * rng.uniform(0.9, 1.0); break;
      default:
        if (rng.uniform(0.0, 1.0) < 0.1) {
          c.credit = c.period;
          c.cost = std::max(c.cost, c.period);
        }
        break;
    }
  }
  set.bound = rng.uniform(1.0, 500.0);
  return set;
}

/// Every distinct breakpoint the scan visits: each lane accumulated from
/// its start exactly as the scan accumulates it.
template <Formula F>
std::vector<double> breakpoints(const CurveSet& set) {
  std::vector<double> out;
  for (const Curve& c : set.curves) {
    std::vector<double> starts{c.d0};
    if (F == Formula::kCredited && c.credit > 0.0) {
      starts.push_back(c.d0 + c.credit);
    }
    for (double t : starts) {
      for (; t <= set.bound + 1e-9; t += c.period) out.push_back(t);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Rescales the costs of `set` so that the exact demand touches t + 1e-9
/// at the breakpoint where it comes closest, then nudges the scale by a few
/// ulps either way.  Demand is linear in a common cost scale:
/// sum(scale * jobs * cost) minus the credit terms, which do not scale.
template <Formula F>
CurveSet tie_at_closest(CurveSet set, gen::Rng& rng) {
  std::vector<Curve> credits_only = set.curves;
  for (Curve& c : credits_only) c.cost = 0.0;
  double scale = std::numeric_limits<double>::infinity();
  for (const double t : breakpoints<F>(set)) {
    double jobs_cost = 0.0;
    double credit_terms = 0.0;
    for (std::size_t i = 0; i < set.curves.size(); ++i) {
      const double off = demand::curve_demand<F>(credits_only[i], t);
      credit_terms += off;
      jobs_cost += demand::curve_demand<F>(set.curves[i], t) - off;
    }
    if (jobs_cost > 0.0) {
      scale = std::min(scale, (t + 1e-9 - credit_terms) / jobs_cost);
    }
  }
  if (!std::isfinite(scale)) return set;
  const double nudge =
      static_cast<double>(static_cast<std::int64_t>(rng.uniform_int(0, 6)) -
                          3) *
      0x1p-52;
  for (Curve& c : set.curves) c.cost *= scale * (1.0 + nudge);
  return set;
}

/// A random set whose exact demand ties t + 1e-9 (see tie_at_closest).
template <Formula F>
CurveSet near_tie(gen::Rng& rng) {
  CurveSet set = rng.uniform(0.0, 1.0) < 0.5 ? commensurate(rng)
                                               : decimal(rng);
  if (rng.uniform(0.0, 1.0) < 0.3) set = short_period(rng);
  return tie_at_closest<F>(std::move(set), rng);
}

/// Member subsets of generated dual-criticality sets at random scales, both
/// modes' curves at their analysis bound (or a short random bound where
/// that bound is missing or long).
std::vector<CurveSet> generated(gen::Rng& rng, std::uint64_t draw) {
  gen::GenParams params;
  params.num_cores = 4;
  params.num_levels = 2;
  params.num_tasks = rng.uniform_int(16, 48);
  params.ifc = rng.uniform(0.2, 1.0);
  params.nsu = rng.uniform(0.5, 1.0);
  const TaskSet ts = gen::generate_trial(params, rng(), draw);
  std::vector<std::size_t> pool(ts.size());
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  std::vector<CurveSet> sets;
  for (int subset = 0; subset < 4; ++subset) {
    const double target = rng.uniform(0.6, 1.3);
    double load = 0.0;
    std::vector<std::size_t> members;
    std::vector<double> scales;
    for (std::size_t i = 0; i < pool.size() && load < target; ++i) {
      std::swap(pool[i], pool[rng.uniform_int(i, pool.size() - 1)]);
      const McTask& task = ts[pool[i]];
      load += task.wcet(task.level()) / task.period();
      members.push_back(pool[i]);
      scales.push_back(rng.uniform(0.0, 1.0) < 0.5
                           ? static_cast<double>(rng.uniform_int(1, 20)) / 20.0
                           : rng.uniform(0.01, 1.0));
    }
    demand::ModeCurves curves;
    demand::build_curves(ts, members, scales, curves);
    for (std::vector<Curve>& mode : curves) {
      if (mode.empty()) continue;
      const std::optional<double> bound = demand::analysis_bound(mode);
      double max_period = 0.0;
      for (const Curve& c : mode) max_period = std::max(max_period, c.period);
      const bool usable = bound && *bound > 0.0 && *bound <= 20.0 * max_period;
      const double horizon =
          usable ? *bound : rng.uniform(1.0, 4.0) * max_period;
      sets.push_back({std::move(mode), horizon});
    }
  }
  return sets;
}

struct Tally {
  std::size_t sets = 0;
  std::size_t violations = 0;  // scans (of either formula) that violated
  std::size_t passes = 0;      // scans that ran to the bound
};

template <Formula F>
::testing::AssertionResult same_scan(const CurveSet& set, Tally& tally,
                                     reference::ScanStats& stats) {
  const std::optional<double> want =
      reference::first_violation<F>(set.curves, set.bound, &stats);
  const std::optional<double> got =
      demand::first_violation<F>(set.curves, set.bound);
  (want ? tally.violations : tally.passes) += 1;
  const auto bits = [](const std::optional<double>& t) {
    return t ? std::bit_cast<std::uint64_t>(*t) : std::uint64_t{0};
  };
  if (want.has_value() == got.has_value() && bits(want) == bits(got)) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream out;
  out << std::hexfloat
      << (F == Formula::kStep ? "kStep" : "kCredited") << ": got "
      << (got ? std::to_string(*got) : "none") << " (" << bits(got)
      << ") vs reference " << (want ? std::to_string(*want) : "none") << " ("
      << bits(want) << ")";
  return ::testing::AssertionFailure() << out.str();
}

TEST(DemandScanTest, ReturnsTheReferenceTimeBitForBit) {
  std::array<Tally, kFamilies> tally{};
  reference::ScanStats stats;
  gen::Rng rng(20200311);
  const auto check = [&](Family family, const CurveSet& set) {
    ++tally[family].sets;
    EXPECT_TRUE(same_scan<Formula::kStep>(set, tally[family], stats))
        << kFamilyNames[family] << ' ' << describe(set);
    EXPECT_TRUE(same_scan<Formula::kCredited>(set, tally[family], stats))
        << kFamilyNames[family] << ' ' << describe(set);
    return !::testing::Test::HasFailure();
  };
  for (std::uint64_t draw = 0; draw < 10000; ++draw) {
    for (const CurveSet& set : generated(rng, draw)) {
      if (!check(kGenerated, set)) return;
    }
  }
  for (int i = 0; i < 16000; ++i) {
    if (!check(kCommensurate, commensurate(rng)) ||
        !check(kDecimal, decimal(rng)) ||
        !check(kCreditAtCost, credit_at_cost(rng)) ||
        !check(kNearTie, near_tie<Formula::kStep>(rng)) ||
        !check(kNearTie, near_tie<Formula::kCredited>(rng))) {
      return;
    }
    if (i % 2 == 0 && !check(kShortPeriod, short_period(rng))) return;
  }

  std::size_t total = 0;
  for (std::size_t f = 0; f < kFamilies; ++f) {
    const Tally& t = tally[f];
    total += t.sets;
    // Each family must reach both outcomes, or its parity proves little.
    EXPECT_GT(t.violations, 0u) << kFamilyNames[f];
    EXPECT_GT(t.passes, 0u) << kFamilyNames[f];
  }
  EXPECT_GE(total, 100000u);
  EXPECT_GT(stats.near_ties, 0u) << stats.breakpoints << " breakpoints";
  std::cout << total << " curve sets, " << stats.breakpoints
            << " reference breakpoints, " << stats.near_ties
            << " near ties\n";
}

// Two sets where the floor formula's 1e-9 tolerance counts a job that no
// lane has fired at the judged t, so the scan must leave t to the exact
// sum.  The random families above almost never build either.
TEST(DemandScanTest, ToleranceEdgesTakeTheExactSum) {
  // A lane accumulated from 0.01 in steps of 0.01 falls more than
  // 1e-9 * period behind d0 + k * period after ~17,000 steps, so at the
  // step it fires the formula counts one job fewer.  A one-job curve just
  // before that step leaves the exact demand 0.0005 below t + 1e-9 there
  // and the fired jobs 0.0005 above it.
  const double period = 0.01;
  double before = 0.0;
  double t = period;
  double fired = 0.0;  // steps the lane fired before t
  while (std::floor((t - period) / period + 1e-9) == fired) {
    before = t;
    t += period;
    fired += 1.0;
  }
  const double d0 = before + 0.006;
  const CurveSet drifted{{{period, period, 0.005, 0.0},
                          {d0, 1e4, d0 - fired * 0.005 - 0.0005, 0.0}},
                         t + 0.5};
  // The second curve's next step, 5.0000000015, lies past the bound's
  // 5 + 1e-9 and never fires, but within the formula's 2e-9 tolerance of
  // the breakpoint 5, where the exact sum counts it: 5.3 against 3.9.
  const CurveSet past_bound{
      {{1.0, 1.0, 0.5, 0.0}, {3.0000000015, 2.0, 1.4, 0.0}}, 5.0};

  Tally tally;
  reference::ScanStats stats;
  for (const CurveSet* set : {&drifted, &past_bound}) {
    EXPECT_TRUE(same_scan<Formula::kStep>(*set, tally, stats))
        << describe(*set);
    EXPECT_TRUE(same_scan<Formula::kCredited>(*set, tally, stats))
        << describe(*set);
  }
  EXPECT_FALSE(reference::first_violation<Formula::kStep>(drifted.curves,
                                                          drifted.bound));
  EXPECT_EQ(reference::first_violation<Formula::kStep>(past_bound.curves,
                                                       past_bound.bound),
            5.0);
}

CurveSet without_credits(CurveSet set) {
  for (Curve& c : set.curves) c.credit = 0.0;
  return set;
}

/// A set with one curve to move (see ResumedScanReturnsTheFullScansTime).
struct MovedSet {
  CurveSet set;
  std::size_t moved = 0;
};

/// Curve 1 steps a twentieth of its period before curve 0, and the move
/// puts its step within 1e-9 below curve 0's, at `tie` - delta, where the
/// floor formula already counts curve 0's job.  The summed demand ties
/// t + 1e-9 at `tie`, so before the move every breakpoint up to curve 2's
/// step at `late` passes, and after it, under kStep, the moved step's new
/// breakpoint violates: the resumed scan finds it only by judging the
/// moved curve's breakpoints below its start.
MovedSet lands_below_a_tie(gen::Rng& rng) {
  const double tie = rng.uniform(1.0, 100.0);
  const double period = 20.0 * rng.uniform(0.05, 0.5) * tie;
  const double d0 = tie - rng.uniform(1e-11, 9e-10) - period / 20.0;
  const double late = tie + rng.uniform(0.1, 0.9) * (d0 + period - tie);
  const double moved_cost = rng.uniform(0.1, 0.9) * d0;
  const double target = tie + 1e-9;
  double cost = target - moved_cost;
  while (cost + moved_cost > target) cost = std::nextafter(cost, 0.0);
  return {{{{tie, 1000.0, cost, 0.0},
            {d0, period, moved_cost, 0.0},
            {late, 1000.0, late, 0.0}},
           late + 1.0},
          1};
}

enum ResumeCase : std::size_t {
  kBelowStart,      // violation at a moved breakpoint below the start
  kAtOrAfterStart,  // violation at or after the start
  kPassed,          // no violation after the move
  kCostGuard,       // the moved curve's cost is below the guard: full scan
  kResumeCases
};
constexpr std::array<const char*, kResumeCases> kResumeCaseNames{
    "below start", "at or after start", "pass", "cost guard"};

/// Scans `moved.set` in full; if it violates at t_v, moves the chosen
/// curve's d0 later by a twentieth of its period, as a tuning move does,
/// and compares the scan resumed at t_v with a fresh full scan.  A quarter
/// of the moved scans also get a shorter bound, as an LO move's lower
/// busy-period bound gives them.
template <Formula F>
::testing::AssertionResult same_resumed_scan(
    MovedSet moved, gen::Rng& rng,
    std::array<std::size_t, kResumeCases>& reached) {
  CurveSet& set = moved.set;
  const std::optional<double> start =
      demand::first_violation<F>(set.curves, set.bound);
  if (!start) return ::testing::AssertionSuccess();
  Curve& c = set.curves[moved.moved];
  c.d0 += c.period / 20.0;
  if (rng.uniform(0.0, 1.0) < 0.25) set.bound *= rng.uniform(0.5, 1.0);
  const std::optional<double> want =
      demand::first_violation<F>(set.curves, set.bound);
  const std::optional<double> got = demand::first_violation<F>(
      set.curves, set.bound, demand::ScanResume{*start, moved.moved});
  const bool guarded = F == Formula::kCredited && c.cost < 2e-9 * c.period;
  reached[guarded ? kCostGuard
          : !want ? kPassed
          : *want < *start ? kBelowStart
                           : kAtOrAfterStart] += 1;
  const auto bits = [](const std::optional<double>& t) {
    return t ? std::bit_cast<std::uint64_t>(*t) : std::uint64_t{0};
  };
  if (want.has_value() == got.has_value() && bits(want) == bits(got)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << (F == Formula::kStep ? "kStep" : "kCredited")
         << " resumed at " << *start << " moving curve " << moved.moved
         << ": got " << (got ? *got : -1.0) << " vs full scan "
         << (want ? *want : -1.0) << ' ' << describe(set);
}

TEST(DemandScanTest, ResumedScanReturnsTheFullScansTime) {
  std::array<std::size_t, kResumeCases> reached{};
  gen::Rng rng(20260311);
  // Zero-credit sets with a random curve to move; one in ten gets a moved
  // cost below the kCredited guard (1e-10 of its period).
  const auto pick = [&](CurveSet set) {
    MovedSet moved{without_credits(std::move(set)), 0};
    moved.moved = rng.uniform_int(0, moved.set.curves.size() - 1);
    if (rng.uniform(0.0, 1.0) < 0.1) {
      Curve& c = moved.set.curves[moved.moved];
      c.cost = 1e-10 * c.period;
    }
    return moved;
  };
  const auto check = [&](const MovedSet& moved) {
    EXPECT_TRUE(same_resumed_scan<Formula::kStep>(moved, rng, reached));
    EXPECT_TRUE(same_resumed_scan<Formula::kCredited>(moved, rng, reached));
    return !::testing::Test::HasFailure();
  };
  for (std::uint64_t draw = 0; draw < 1500; ++draw) {
    for (CurveSet& set : generated(rng, draw)) {
      if (!check(pick(std::move(set)))) return;
    }
  }
  for (int i = 0; i < 4000; ++i) {
    if (!check(pick(commensurate(rng))) || !check(pick(decimal(rng))) ||
        !check(pick(short_period(rng))) ||
        !check(pick(tie_at_closest<Formula::kStep>(
            without_credits(decimal(rng)), rng))) ||
        !check(lands_below_a_tie(rng))) {
      return;
    }
  }
  for (std::size_t k = 0; k < kResumeCases; ++k) {
    EXPECT_GT(reached[k], 0u) << kResumeCaseNames[k];
  }
  std::cout << reached[kBelowStart] << " below the start, "
            << reached[kAtOrAfterStart] << " at or after it, "
            << reached[kPassed] << " passes, " << reached[kCostGuard]
            << " under the cost guard\n";
}

}  // namespace
}  // namespace mcs::analysis
