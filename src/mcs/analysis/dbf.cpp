#include "mcs/analysis/dbf.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/analysis/edfvd.hpp"

namespace mcs::analysis {

namespace {

/// (floor((t - d)/T) + 1)^+ * c  -- jobs with relative deadline d, period T.
double step_demand(double t, double d, double period, double c) {
  if (t < d - 1e-9) return 0.0;
  return (std::floor((t - d) / period + 1e-9) + 1.0) * c;
}

/// Scans the summed step demand against t at every step point up to
/// `bound`; returns the first violating t, or nullopt when the demand fits.
/// Each entry of `curves` is (deadline, period, cost).
std::optional<double> first_violation(
    const std::vector<std::array<double, 3>>& curves, double bound) {
  // Stream the step points in ascending order through a min-heap (one lane
  // per curve) so the scan stops at the first violation without
  // materializing and sorting the whole breakpoint list — rejections, the
  // common case inside placement gates, usually violate early.
  struct Lane {
    double next;
    std::size_t curve;
  };
  const auto later = [](const Lane& a, const Lane& b) {
    return a.next > b.next;
  };
  std::vector<Lane> heap;
  heap.reserve(curves.size());
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const auto& [d, period, c] = curves[i];
    if (c <= 0.0) continue;
    if (d <= bound + 1e-9) heap.push_back({d, i});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  double last = -1.0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Lane lane = heap.back();
    heap.pop_back();
    const double t = lane.next;
    lane.next += curves[lane.curve][1];
    if (lane.next <= bound + 1e-9) {
      heap.push_back(lane);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    if (t == last) continue;  // duplicate step across lanes
    last = t;
    double demand = 0.0;
    for (const auto& [d, period, c] : curves) {
      demand += step_demand(t, d, period, c);
    }
    if (demand > t + 1e-9) return t;
  }
  return std::nullopt;
}

bool demand_fits(const std::vector<std::array<double, 3>>& curves,
                 double bound) {
  return !first_violation(curves, bound).has_value();
}

/// Busy-period-style bound: demand(t) <= slope*t + intercept, so beyond
/// intercept/(1 - slope) the test always passes.  Returns nullopt when the
/// demand slope reaches 1 (unschedulable unless demand is identically 0).
std::optional<double> analysis_bound(
    const std::vector<std::array<double, 3>>& curves) {
  double slope = 0.0;
  double intercept = 0.0;
  for (const auto& [d, period, c] : curves) {
    slope += c / period;
    intercept += c * std::max(0.0, 1.0 - d / period);
  }
  if (slope >= 1.0 - 1e-12) {
    return intercept <= 1e-12 && slope <= 1.0 + 1e-12
               ? std::optional<double>(0.0)
               : std::nullopt;
  }
  return intercept / (1.0 - slope);
}

/// Whether uniform scale x passes, checking cheapest first (see the search
/// order in dbf.hpp): both bounds, then the scan of `first_scan` (0 = LO,
/// 1 = HI), then the other.  A rejection by the other scan makes it
/// `first_scan` for the next candidate.
bool test_with_scale(const TaskSet& ts, std::span<const std::size_t> members,
                     double x, const DbfOptions& options,
                     std::size_t& first_scan) {
  std::array<std::vector<std::array<double, 3>>, 2> curves;
  for (std::size_t i : members) {
    const McTask& task = ts[i];
    const double period = task.period();
    if (task.level() == 2) {
      curves[0].push_back({x * period, period, task.wcet(1)});
      curves[1].push_back({period - x * period, period, task.wcet(2)});
    } else {
      curves[0].push_back({period, period, task.wcet(1)});
    }
  }
  std::array<double, 2> bounds{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = analysis_bound(curves[mode]);
    if (!bound) return false;
    if (*bound > options.horizon_cap) return false;  // conservative
    bounds[mode] = *bound;
  }
  for (const std::size_t mode : {first_scan, 1 - first_scan}) {
    if (bounds[mode] > 0.0 && !demand_fits(curves[mode], bounds[mode])) {
      first_scan = mode;
      return false;
    }
  }
  return true;
}

}  // namespace

double dbf_lo(const McTask& task, double t, double x) {
  const double d =
      task.level() >= 2 ? x * task.period() : task.period();
  return step_demand(t, d, task.period(), task.wcet(1));
}

double dbf_hi(const McTask& task, double t, double x) {
  if (task.level() < 2) return 0.0;
  const double d = task.period() - x * task.period();
  return step_demand(t, d, task.period(), task.wcet(2));
}

DbfResult dbf_dual_test(const TaskSet& ts,
                        std::span<const std::size_t> members,
                        const DbfOptions& options) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "dbf_dual_test: requires a dual-criticality task set");
  }
  if (members.empty()) return DbfResult{.schedulable = true, .scale = 1.0};

  // Candidate scales: x = 1 (plain EDF), the EDF-VD analytical factors, and
  // a uniform grid.  The first passing candidate wins.
  UtilMatrix u(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::vector<double> candidates{1.0};
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) candidates.push_back(1.0 - u22);
  candidates.push_back(dual_scaling_factor(u));
  for (std::size_t g = 1; g <= options.scale_grid; ++g) {
    candidates.push_back(static_cast<double>(g) /
                         static_cast<double>(options.scale_grid));
  }
  // HI first: at x = 1, the first candidate, every HI curve steps at t = 0,
  // so the HI scan usually rejects at its first breakpoint.
  std::size_t first_scan = 1;
  for (double x : candidates) {
    if (x <= 0.0 || x > 1.0) continue;
    if (test_with_scale(ts, members, x, options, first_scan)) {
      return DbfResult{.schedulable = true, .scale = x};
    }
  }
  return DbfResult{};
}

DbfResult dbf_dual_test(const TaskSet& ts, const DbfOptions& options) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return dbf_dual_test(ts, all, options);
}

namespace {

/// Evaluates both demand tests with per-member scales.  On failure returns
/// (mode, t): mode 0 = LO-test violation, 1 = HI-test violation.
std::optional<std::pair<int, double>> tuned_violation(
    const TaskSet& ts, std::span<const std::size_t> members,
    std::span<const double> scales, const DbfOptions& options) {
  std::vector<std::array<double, 3>> lo_curves;
  std::vector<std::array<double, 3>> hi_curves;
  for (std::size_t m = 0; m < members.size(); ++m) {
    const McTask& task = ts[members[m]];
    const double period = task.period();
    if (task.level() == 2) {
      lo_curves.push_back({scales[m] * period, period, task.wcet(1)});
      hi_curves.push_back(
          {period - scales[m] * period, period, task.wcet(2)});
    } else {
      lo_curves.push_back({period, period, task.wcet(1)});
    }
  }
  int mode = 0;
  for (const auto* curves : {&lo_curves, &hi_curves}) {
    const std::optional<double> bound = analysis_bound(*curves);
    if (!bound || *bound > options.horizon_cap) {
      return std::make_pair(mode, 0.0);
    }
    if (*bound > 0.0) {
      if (const auto t = first_violation(*curves, *bound)) {
        return std::make_pair(mode, *t);
      }
    }
    ++mode;
  }
  return std::nullopt;
}

}  // namespace

DbfTunedResult dbf_dual_test_tuned(const TaskSet& ts,
                                   std::span<const std::size_t> members,
                                   const DbfOptions& options) {
  if (ts.num_levels() != 2) {
    throw std::invalid_argument(
        "dbf_dual_test_tuned: requires a dual-criticality task set");
  }
  DbfTunedResult result;
  result.scales.assign(ts.size(), 1.0);

  // The uniform search is a special case; keep its acceptances (dominance).
  const DbfResult uniform = dbf_dual_test(ts, members, options);
  std::vector<double> scales(members.size(), 1.0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    if (ts[members[m]].level() == 2) {
      scales[m] = uniform.schedulable ? uniform.scale : 0.5;
    }
  }
  if (uniform.schedulable) {
    result.schedulable = true;
    for (std::size_t m = 0; m < members.size(); ++m) {
      result.scales[members[m]] = scales[m];
    }
    return result;  // the uniform solution already passes
  }

  const double step = 1.0 / static_cast<double>(options.scale_grid);
  std::size_t hi_count = 0;
  for (std::size_t m : members) hi_count += ts[m].level() == 2 ? 1u : 0u;
  const std::size_t max_iter = 8 * options.scale_grid * (hi_count + 1);

  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const auto violation = tuned_violation(ts, members, scales, options);
    if (!violation) {
      result.schedulable = true;
      for (std::size_t m = 0; m < members.size(); ++m) {
        result.scales[members[m]] = scales[m];
      }
      return result;
    }
    const auto [mode, t] = *violation;
    // Pick the HI member contributing the most demand at the violation
    // point whose scale can still move in the helpful direction.
    std::size_t best = members.size();
    double best_demand = 0.0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const McTask& task = ts[members[m]];
      if (task.level() != 2) continue;
      const double period = task.period();
      double demand;
      bool movable;
      if (mode == 0) {
        demand = step_demand(t, scales[m] * period, period, task.wcet(1));
        movable = scales[m] <= 1.0 - step * 0.5;
      } else {
        demand = step_demand(t, period - scales[m] * period, period,
                             task.wcet(2));
        movable = scales[m] >= 2.0 * step - step * 0.5;
      }
      if (movable && demand > best_demand) {
        best_demand = demand;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) return result;  // stuck
    scales[best] += mode == 0 ? step : -step;
  }
  return result;  // iteration cap: conservatively reject
}

DbfTunedResult dbf_dual_test_tuned(const TaskSet& ts,
                                   const DbfOptions& options) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return dbf_dual_test_tuned(ts, all, options);
}

}  // namespace mcs::analysis
