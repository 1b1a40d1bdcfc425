#include "mcs/analysis/ge_test.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "mcs/analysis/edfvd.hpp"

namespace mcs::analysis {

namespace {

/// One demand curve: jobs with relative deadline d0 + k*period, each worth
/// `cost`, minus a carry-over credit that ramps away over the first
/// `credit` units after each deadline step (credit == 0 -> plain steps).
struct Curve {
  double d0 = 0.0;
  double period = 1.0;
  double cost = 0.0;
  double credit = 0.0;
};

double curve_demand(const Curve& c, double t) {
  if (t < c.d0 - 1e-9) return 0.0;
  const double jobs = std::floor((t - c.d0) / c.period + 1e-9) + 1.0;
  const double r = (t - c.d0) - (jobs - 1.0) * c.period;
  return jobs * c.cost - std::max(0.0, c.credit - r);
}

/// Busy-period-style bound: demand(t) <= slope*t + intercept (the credit
/// only lowers demand, so ignoring it keeps the envelope an upper bound).
std::optional<double> analysis_bound(const std::vector<Curve>& curves) {
  double slope = 0.0;
  double intercept = 0.0;
  for (const Curve& c : curves) {
    slope += c.cost / c.period;
    intercept += c.cost * std::max(0.0, 1.0 - c.d0 / c.period);
  }
  if (slope >= 1.0 - 1e-12) {
    return intercept <= 1e-12 && slope <= 1.0 + 1e-12
               ? std::optional<double>(0.0)
               : std::nullopt;
  }
  return intercept / (1.0 - slope);
}

/// Scans the summed demand against t at every breakpoint up to `bound`.
/// sum(demand) - t is piecewise linear with slope changes only at deadline
/// steps (jump up) and credit kinks (ramp ends), so those two families are
/// the only candidate maxima.  Returns the first violating t, or nullopt.
///
/// Breakpoints are streamed in ascending order through a small min-heap
/// (one lane per curve, a step lane and a kink lane) instead of being
/// materialized and sorted: the scan stops at the first violation, which
/// makes rejecting candidates — the common case inside the placement
/// gates — cheap, and passing scans drop the O(P log P) sort.
std::optional<double> first_violation(const std::vector<Curve>& curves,
                                      double bound) {
  struct Lane {
    double next;        ///< next breakpoint of this lane
    std::size_t curve;  ///< index into `curves`
    bool kink;          ///< kink lane (steps + credit) vs step lane
  };
  const auto later = [](const Lane& a, const Lane& b) {
    return a.next > b.next;
  };
  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Curve& c = curves[i];
    if (c.cost <= 0.0) continue;
    if (c.d0 <= bound + 1e-9) heap.push_back({c.d0, i, false});
    if (c.credit > 0.0 && c.d0 + c.credit <= bound + 1e-9) {
      heap.push_back({c.d0 + c.credit, i, true});
    }
  }
  std::make_heap(heap.begin(), heap.end(), later);
  double last = -1.0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Lane lane = heap.back();
    heap.pop_back();
    const double t = lane.next;
    lane.next += curves[lane.curve].period;
    if (lane.next <= bound + 1e-9) {
      heap.push_back(lane);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    if (t == last) continue;  // duplicate breakpoint across lanes
    last = t;
    double demand = 0.0;
    for (const Curve& c : curves) demand += curve_demand(c, t);
    if (demand > t + 1e-9) return t;
  }
  return std::nullopt;
}

void build_curves(const TaskSet& ts, std::span<const std::size_t> members,
                  std::span<const double> scales,
                  std::vector<Curve>& lo_curves,
                  std::vector<Curve>& hi_curves) {
  lo_curves.clear();
  hi_curves.clear();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const McTask& task = ts[members[m]];
    const double period = task.period();
    if (task.level() == 2) {
      const double v = scales[m] * period;
      lo_curves.push_back({v, period, task.wcet(1), 0.0});
      hi_curves.push_back({period - v, period, task.wcet(2), task.wcet(1)});
    } else {
      lo_curves.push_back({period, period, task.wcet(1), 0.0});
    }
  }
}

/// Evaluates both demand tests with per-member scales.  On failure returns
/// (mode, t): mode 0 = LO-test violation, 1 = HI-test violation.
std::optional<std::pair<int, double>> ge_violation(
    const TaskSet& ts, std::span<const std::size_t> members,
    std::span<const double> scales, const GeOptions& options) {
  std::vector<Curve> lo_curves;
  std::vector<Curve> hi_curves;
  build_curves(ts, members, scales, lo_curves, hi_curves);
  int mode = 0;
  for (const auto* curves : {&lo_curves, &hi_curves}) {
    const std::optional<double> bound = analysis_bound(*curves);
    if (!bound || *bound > options.horizon_cap) {
      return std::make_pair(mode, 0.0);  // conservative
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

/// Tier 1: whether uniform scale x passes, checking cheapest first (see
/// the search strategy in ge_test.hpp): both bounds, then the scan of
/// `first_scan` (0 = LO, 1 = HI), then the other.  A rejection by the other
/// scan makes it `first_scan` for the next candidate.
bool test_with_uniform(const TaskSet& ts, std::span<const std::size_t> members,
                       double x, std::vector<double>& scales,
                       const GeOptions& options, std::size_t& first_scan) {
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? x : 1.0;
  }
  std::array<std::vector<Curve>, 2> curves;
  build_curves(ts, members, scales, curves[0], curves[1]);
  std::array<double, 2> bounds{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = analysis_bound(curves[mode]);
    if (!bound || *bound > options.horizon_cap) return false;  // conservative
    bounds[mode] = *bound;
  }
  for (const std::size_t mode : {first_scan, 1 - first_scan}) {
    if (bounds[mode] > 0.0 &&
        first_violation(curves[mode], bounds[mode]).has_value()) {
      first_scan = mode;
      return false;
    }
  }
  return true;
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
  return curve_demand(c, t);
}

GeResult ge_dual_test(const TaskSet& ts, std::span<const std::size_t> members,
                      const GeOptions& options) {
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

  // Tier 1: uniform scales over the same candidates dbf_dual_test tries —
  // the GE curves lower-bound the dbf.hpp curves at equal scales, so every
  // dbf_dual_test acceptance is accepted here too (dominance).
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
  std::vector<double> scales(members.size(), 1.0);
  // HI first: at x = 1, the first candidate, every HI curve steps at t = 0,
  // so the HI scan usually rejects at its first breakpoint.
  std::size_t first_scan = 1;
  for (double x : candidates) {
    if (x <= 0.0 || x > 1.0) continue;
    if (test_with_uniform(ts, members, x, scales, options, first_scan)) {
      return accept(ts, members, scales);
    }
  }

  // Tier 2: greedy per-task tuning from a mid-grid start, mirroring
  // dbf_dual_test_tuned's move rules on the credited curves.
  const double step = 1.0 / static_cast<double>(options.scale_grid);
  std::size_t hi_count = 0;
  for (std::size_t m : members) hi_count += ts[m].level() == 2 ? 1u : 0u;
  if (hi_count == 0) return result;  // pure-LO sets are settled by tier 1
  for (std::size_t m = 0; m < members.size(); ++m) {
    scales[m] = ts[members[m]].level() == 2 ? 0.5 : 1.0;
  }
  const std::size_t max_iter =
      std::min(8 * options.scale_grid * (hi_count + 1),
               options.greedy_iter_cap);

  // The move taken last and the scale it moved from; see the cycle exit.
  std::size_t last_moved = members.size();
  double last_prior = 0.0;
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const auto violation = ge_violation(ts, members, scales, options);
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
      double demand;
      bool movable;
      if (mode == 0) {
        const Curve c{scales[m] * period, period, task.wcet(1), 0.0};
        demand = curve_demand(c, t);
        movable = scales[m] <= 1.0 - step * 0.5;
      } else {
        demand = ge_dbf_hi(task, t, scales[m]);
        movable = scales[m] >= 2.0 * step - step * 0.5;
      }
      if (movable && demand > best_demand) {
        best_demand = demand;
        best = m;
      }
    }
    if (best == members.size() || best_demand <= 0.0) return result;  // stuck
    const double prior = scales[best];
    scales[best] += mode == 0 ? step : -step;
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

GeResult ge_dual_test(const TaskSet& ts, const GeOptions& options) {
  std::vector<std::size_t> all(ts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return ge_dual_test(ts, all, options);
}

}  // namespace mcs::analysis
