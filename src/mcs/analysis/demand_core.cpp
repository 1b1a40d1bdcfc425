#include "mcs/analysis/demand_core.hpp"

#include "mcs/analysis/edfvd.hpp"

namespace mcs::analysis::demand {

void build_curves(const TaskSet& ts, std::span<const std::size_t> members,
                  std::span<const double> scales, ModeCurves& curves) {
  curves[0].clear();
  curves[1].clear();
  for (std::size_t m = 0; m < members.size(); ++m) {
    const McTask& task = ts[members[m]];
    const double period = task.period();
    if (task.level() == 2) {
      const double v = scales[m] * period;
      curves[0].push_back({v, period, task.wcet(1), 0.0});
      curves[1].push_back({period - v, period, task.wcet(2), task.wcet(1)});
    } else {
      curves[0].push_back({period, period, task.wcet(1), 0.0});
    }
  }
}

std::optional<double> analysis_bound(std::span<const Curve> curves) {
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

template <Formula F>
std::optional<double> first_violation(std::span<const Curve> curves,
                                      double bound) {
  // Breakpoints stream in ascending order through a min-heap with a step
  // lane and, under kCredited, a kink lane per curve, so the scan stops at
  // the first violation without sorting the whole list: rejections, the
  // common case inside placement gates, usually violate early.
  struct Lane {
    double next;        ///< next breakpoint of this lane
    std::size_t curve;  ///< index into `curves`
  };
  const auto later = [](const Lane& a, const Lane& b) {
    return a.next > b.next;
  };
  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Curve& c = curves[i];
    if (c.cost <= 0.0) continue;
    if (c.d0 <= bound + 1e-9) heap.push_back({c.d0, i});
    if (F == Formula::kCredited && c.credit > 0.0 &&
        c.d0 + c.credit <= bound + 1e-9) {
      heap.push_back({c.d0 + c.credit, i});
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
    for (const Curve& c : curves) demand += curve_demand<F>(c, t);
    if (demand > t + 1e-9) return t;
  }
  return std::nullopt;
}

namespace {

/// Uniform candidates in trial order; out-of-range ones are skipped later.
std::vector<double> scale_candidates(const TaskSet& ts,
                                     std::span<const std::size_t> members) {
  UtilMatrix u(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::vector<double> candidates{1.0};
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) candidates.push_back(1.0 - u22);
  candidates.push_back(dual_scaling_factor(u));
  for (std::size_t g = 1; g <= kScaleGrid; ++g) {
    candidates.push_back(static_cast<double>(g) /
                         static_cast<double>(kScaleGrid));
  }
  return candidates;
}

/// Whether one uniform candidate passes: both bounds, then the scan of
/// `first_scan`, then the other.  A rejection by the other scan makes it
/// `first_scan` for the next candidate.
template <Formula F>
bool passes(const ModeCurves& curves, std::size_t& first_scan) {
  std::array<double, 2> bounds{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = analysis_bound(curves[mode]);
    if (!bound || *bound > kHorizonCap) return false;  // conservative
    bounds[mode] = *bound;
  }
  for (const std::size_t mode : {first_scan, 1 - first_scan}) {
    if (bounds[mode] > 0.0 &&
        first_violation<F>(curves[mode], bounds[mode]).has_value()) {
      first_scan = mode;
      return false;
    }
  }
  return true;
}

}  // namespace

template <Formula F>
std::optional<double> uniform_scale(const TaskSet& ts,
                                    std::span<const std::size_t> members) {
  std::vector<double> scales(members.size());
  ModeCurves curves;
  std::size_t first_scan = 1;  // 0 = LO, 1 = HI; see the file comment
  for (const double x : scale_candidates(ts, members)) {
    if (x <= 0.0 || x > 1.0) continue;
    std::fill(scales.begin(), scales.end(), x);
    build_curves(ts, members, scales, curves);
    if (passes<F>(curves, first_scan)) return x;
  }
  return std::nullopt;
}

template std::optional<double> first_violation<Formula::kCredited>(
    std::span<const Curve>, double);
template std::optional<double> uniform_scale<Formula::kStep>(
    const TaskSet&, std::span<const std::size_t>);
template std::optional<double> uniform_scale<Formula::kCredited>(
    const TaskSet&, std::span<const std::size_t>);

}  // namespace mcs::analysis::demand
