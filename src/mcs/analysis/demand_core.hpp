// The demand scan behind both dual-criticality EDF-VD gates: dbf_dual_test
// (dbf.hpp, the uncredited step curves of [20]) and ge_dual_test
// (ge_test.hpp, the Ekberg-Yi curves with the carry-over credit).  Not a
// public API: in the library only dbf.cpp and ge_test.cpp include it.
//
// A core passes at a set of virtual-deadline scales when, in each mode, the
// summed demand of its curves stays within t at every breakpoint up to the
// busy-period bound.  LO mode has one curve per member, HI mode one per HI
// member.  The two gates differ only in the demand formula, which the scan
// takes as a compile-time Formula:
//
//   kStep      jobs * cost
//   kCredited  jobs * cost - max(0, credit - r),  r = the time since the
//              last deadline step
//
// kStep is not kCredited with zero credit.  When the 1e-9 floor tolerance
// rounds `jobs` up at an accumulated breakpoint, r is a tiny negative
// number and the credited formula subtracts |r| even with zero credit.  So
// each gate names its formula; the credit alone never selects one.
//
// Uniform-scale tier.  Both gates first try one scale x for every HI
// member, over the candidates x = 1 (plain EDF), 1 - U_2(2), the EDF-VD
// factor and a grid of kScaleGrid steps, and accept the first that passes.
// A candidate passes only if four side-effect-free checks all pass: the LO
// and HI busy-period bounds and the LO and HI breakpoint scans.  Their
// order cannot change the verdict, so the cheapest go first.  Both O(n)
// bounds go first: over a third of the GE-FFD gate calls in h2 trials have
// U_LO >= 1, and the LO bound rejects those at every candidate.  Then comes
// the scan that rejected the previous candidate, HI for x = 1, where every
// HI curve steps at t = 0.  At large x the HI scan fails early while the LO
// scan passes in full, and at small x the reverse, so a fixed order would
// pay for one full passing scan per candidate on one side of the grid.  On
// the GE-FFD calls of 96 h2 trials a fixed HI-first order ran 3x as many
// passing HI scans (29,087 against 9,757) and took 8.0 ms per trial against
// 5.7.  tests/analysis/demand_parity_test.cpp pins the order bit for bit
// against a copy that scans LO before HI.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis::demand {

/// If the busy-period bound exceeds this horizon, the mode conservatively
/// fails (soundness over completeness).
inline constexpr double kHorizonCap = 100000.0;
/// Number of uniformly spaced scale candidates in (0, 1]; also the step of
/// GE's per-task tuning.
inline constexpr std::size_t kScaleGrid = 20;
/// Iteration cap of GE's per-task tuning tier.
inline constexpr std::size_t kGreedyIterCap = 48;

enum class Formula { kStep, kCredited };

/// Jobs with relative deadline d0 + k*period, each worth `cost`.  Under
/// kCredited a carry-over credit ramps away over the first `credit` time
/// units after each deadline step; kStep ignores it.
struct Curve {
  double d0 = 0.0;
  double period = 1.0;
  double cost = 0.0;
  double credit = 0.0;
};

/// LO-mode (index 0) and HI-mode (index 1) curves of one core.
using ModeCurves = std::array<std::vector<Curve>, 2>;

template <Formula F>
[[nodiscard]] inline double curve_demand(const Curve& c, double t) {
  if (t < c.d0 - 1e-9) return 0.0;
  const double jobs = std::floor((t - c.d0) / c.period + 1e-9) + 1.0;
  if constexpr (F == Formula::kStep) {
    return jobs * c.cost;
  } else {
    const double r = (t - c.d0) - (jobs - 1.0) * c.period;
    return jobs * c.cost - std::max(0.0, c.credit - r);
  }
}

/// Fills both modes' curves of `members`, HI member members[m] at virtual
/// deadline scale scales[m] (LO members ignore their entry).  HI-mode
/// curves carry C(LO) as their credit.
void build_curves(const TaskSet& ts, std::span<const std::size_t> members,
                  std::span<const double> scales, ModeCurves& curves);

/// Busy-period-style bound: demand(t) <= slope*t + intercept (a credit only
/// lowers demand, so ignoring it keeps the envelope an upper bound), so
/// beyond intercept/(1 - slope) the scan always passes.  nullopt when the
/// slope reaches 1, unless the demand is identically 0.
[[nodiscard]] std::optional<double> analysis_bound(
    std::span<const Curve> curves);

/// Scans the summed demand against t at every breakpoint up to `bound` and
/// returns the first violating t, or nullopt when the demand fits.
/// Breakpoints are the deadline steps and, under kCredited, the credit
/// kinks: between two of them demand - t never rises.
template <Formula F>
[[nodiscard]] std::optional<double> first_violation(
    std::span<const Curve> curves, double bound);

/// The uniform-scale tier (see the file comment): the first candidate x
/// that passes both modes, or nullopt.
template <Formula F>
[[nodiscard]] std::optional<double> uniform_scale(
    const TaskSet& ts, std::span<const std::size_t> members);

}  // namespace mcs::analysis::demand
