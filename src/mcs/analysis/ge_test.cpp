#include "mcs/analysis/ge_test.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/analysis/demand_core.hpp"

namespace mcs::analysis {

namespace {

using demand::Curve;

/// The credited curves, in the demand, both tiers and ge_dbf_hi alike.
constexpr demand::Formula kFormula = demand::Formula::kCredited;

/// Evaluates both demand tests with per-member scales, LO before HI, the LO
/// scan resumed at `lo_resume`.  On failure returns (mode, t): mode 0 =
/// LO-test violation, 1 = HI-test violation.
std::optional<std::pair<std::size_t, double>> ge_violation(
    const TaskSet& ts, std::span<const std::size_t> members,
    std::span<const double> scales,
    std::optional<demand::ScanResume> lo_resume, demand::ModeCurves& curves) {
  demand::build_curves(ts, members, scales, curves);
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = demand::analysis_bound(curves[mode]);
    if (!bound) return std::make_pair(mode, 0.0);  // conservative
    if (*bound > 0.0) {
      if (const auto t = demand::first_violation<kFormula>(
              curves[mode], *bound,
              mode == 0 ? lo_resume : std::nullopt)) {
        return std::make_pair(mode, *t);
      }
    }
  }
  return std::nullopt;
}

GeResult accept(const TaskSet& ts, std::span<const std::size_t> members,
                std::span<const double> scales) {
  GeResult result;
  result.schedulable = true;
  result.scales.assign(ts.size(), 1.0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    result.scales[members[m]] = scales[m];
  }
  return result;
}

}  // namespace

double ge_dbf_hi(const McTask& task, double t, double x) {
  if (task.level() < 2) return 0.0;
  const double period = task.period();
  const Curve c{period - x * period, period, task.wcet(2), task.wcet(1)};
  return demand::curve_demand<kFormula>(c, t);
}

GeResult ge_dual_test(const TaskSet& ts,
                      std::span<const std::size_t> members) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "ge_dual_test: requires a dual-criticality task set");
  }
  GeResult result;
  result.scales.assign(ts.size(), 1.0);
  if (members.empty()) {
    result.schedulable = true;
    return result;
  }

  // Tier 1: the uniform-scale search shared with dbf_dual_test.
  std::vector<double> scales(members.size(), 1.0);
  if (const auto x = demand::uniform_scale<kFormula>(ts, members)) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (ts[members[m]].level() == 2) scales[m] = *x;
    }
    return accept(ts, members, scales);
  }

  // Tier 2: greedy per-task tuning from a mid-grid start.
  const double step = 1.0 / static_cast<double>(demand::kScaleGrid);
  std::size_t hi_count = 0;
  for (std::size_t m : members) hi_count += ts[m].level() == 2 ? 1u : 0u;
  if (hi_count == 0) return result;  // pure-LO sets are settled by tier 1
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (ts[members[m]].level() == 2) scales[m] = 0.5;
  }
  const std::size_t max_iter = std::min(
      8 * demand::kScaleGrid * (hi_count + 1), demand::kGreedyIterCap);

  demand::ModeCurves curves;
  // The move taken last and the scale it moved from; see the cycle exit.
  std::size_t last_moved = members.size();
  double last_prior = 0.0;
  // After an LO move the LO scan resumes at the last LO violation: the
  // move only put one LO deadline later (see demand_core.hpp).
  std::optional<demand::ScanResume> lo_resume;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const auto violation =
        ge_violation(ts, members, scales, lo_resume, curves);
    if (!violation) return accept(ts, members, scales);
    const auto [mode, t] = *violation;
    // Pick the HI member contributing the most demand at the violation
    // point whose scale can still move in the helpful direction.
    std::size_t best = members.size();
    double best_demand = 0.0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const McTask& task = ts[members[m]];
      if (task.level() != 2) continue;
      const double period = task.period();
      double contrib;
      bool movable;
      if (mode == 0) {
        const Curve c{scales[m] * period, period, task.wcet(1), 0.0};
        contrib = demand::curve_demand<kFormula>(c, t);
        movable = scales[m] <= 1.0 - step * 0.5;
      } else {
        contrib = ge_dbf_hi(task, t, scales[m]);
        movable = scales[m] >= 2.0 * step - step * 0.5;
      }
      if (movable && contrib > best_demand) {
        best_demand = contrib;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) return result;  // stuck
    const double prior = scales[best];
    scales[best] += mode == 0 ? step : -step;
    lo_resume = mode == 0 ? std::optional(demand::ScanResume{t, best})
                          : std::nullopt;
    // Cycle exit.  A move that takes the last-moved scale back to the exact
    // double it held before that move restores the state of two iterations
    // ago.  The step is a pure function of the scales and both states of
    // this 2-cycle have violated, so the loop could only alternate between
    // them until the cap: reject now, as the cap would.
    if (best == last_moved && scales[best] == last_prior) return result;
    last_moved = best;
    last_prior = prior;
  }
  return result;  // iteration cap: conservatively reject
}

GeResult ge_dual_test(const TaskSet& ts) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ge_dual_test(ts, all);
}

}  // namespace mcs::analysis
