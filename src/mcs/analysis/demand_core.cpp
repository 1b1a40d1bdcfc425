#include "mcs/analysis/demand_core.hpp"

#include <cstdint>
#include <limits>

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
  double lanes = 0.0;
  double min_period = std::numeric_limits<double>::infinity();
  for (const Curve& c : curves) {
    slope += c.cost / c.period;
    intercept += c.cost * std::max(0.0, 1.0 - c.d0 / c.period);
    if (c.cost > 0.0) {
      lanes += c.credit > 0.0 ? 2.0 : 1.0;
      min_period = std::min(min_period, c.period);
    }
  }
  if (slope >= 1.0 - 1e-12) {
    return intercept <= 1e-12 && slope <= 1.0 + 1e-12
               ? std::optional<double>(0.0)
               : std::nullopt;
  }
  const double bound = intercept / (1.0 - slope);
  if (bound > kHorizonCap ||
      lanes * (bound / min_period + 1.0) > kScanStepCap) {
    return std::nullopt;
  }
  return bound;
}

namespace {

/// One breakpoint stream of the scan: a curve's deadline steps, or under
/// kCredited its credit kinks.
struct Lane {
  double next;          ///< next breakpoint of this lane
  std::uint32_t curve;  ///< index into the scan's curves (< 2^32 of them)
  std::uint32_t jobs;   ///< deadline steps fired, or kKink for a kink lane
};
constexpr std::uint32_t kKink = std::numeric_limits<std::uint32_t>::max();

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRoundoff = 0x1p-53;
/// Covers the absolute rounding error of subnormal results.
constexpr double kUnderflow = 0x1p-1000;

/// Restores the min-heap order on `next` after the root's key changed: one
/// sift instead of the pop and push of the std heap functions.
void sift_root(std::span<Lane> heap) {
  const Lane moving = heap[0];
  std::size_t i = 0;
  for (std::size_t child = 1; child < heap.size(); child = 2 * i + 1) {
    if (child + 1 < heap.size() && heap[child + 1].next < heap[child].next) {
      ++child;
    }
    if (!(heap[child].next < moving.next)) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

/// The demand a scan carries from one breakpoint to the next, and the
/// running terms of its error bound (see the header comment).
template <Formula F>
class CarriedDemand {
 public:
  explicit CarriedDemand(std::size_t curves)
      : ramp_of_(F == Formula::kCredited ? curves : 0, 0.0) {}

  /// Fires the deadline step of `curve` at t; false if its ramp is open.
  bool step(const Curve& c, std::uint32_t curve, double t) {
    steps_ += c.cost;
    fired_ += 1.0;
    if (F == Formula::kStep || c.credit == 0.0) return true;
    double& ramp = ramp_of_[curve];
    const bool closed = ramp == 0.0;
    ramp = c.credit + t;
    ramps_ += 1.0;
    ramp_sum_ += ramp;
    ramp_ops_ += std::abs(ramp_sum_);
    return closed;
  }

  /// Fires the credit kink of `curve`; false if its ramp is not open.
  bool kink(std::uint32_t curve) {
    double& ramp = ramp_of_[curve];
    const bool open = ramp != 0.0;
    ramps_ -= 1.0;
    // With no ramp open the true sum is 0: drop its rounding error.
    ramp_sum_ = ramps_ == 0.0 ? 0.0 : ramp_sum_ - ramp;
    ramp_ops_ = ramps_ == 0.0 ? 0.0 : ramp_ops_ + std::abs(ramp_sum_);
    ramp = 0.0;
    return open;
  }

  [[nodiscard]] double estimate(double t) const {
    if constexpr (F == Formula::kStep) return steps_;
    return steps_ - (ramp_sum_ - ramps_ * t);
  }

  /// Bounds |estimate(t) - the exact sum at t| for a scan of n curves whose
  /// per-curve drift and rounding are within `curve_error`.
  [[nodiscard]] double error(double t, double estimate, double n,
                             double curve_error) const {
    return 2.0 * (kRoundoff * ((fired_ + n + 2.0) * steps_ + ramp_ops_ +
                               2.0 * (ramp_sum_ + ramps_ * t +
                                      std::abs(estimate))) +
                  curve_error) +
           kUnderflow;
  }

 private:
  double steps_ = 0.0;     // summed cost of the fired deadline steps
  double fired_ = 0.0;     // additions to steps_
  double ramps_ = 0.0;     // open credit ramps
  double ramp_sum_ = 0.0;  // their summed credit + start
  double ramp_ops_ = 0.0;  // summed |ramp_sum_| since ramps_ was last 0
  /// Per curve: credit + start of its open ramp, 0 while closed.
  std::vector<double> ramp_of_;
};

}  // namespace

template <Formula F>
std::optional<double> first_violation(std::span<const Curve> curves,
                                      double bound) {
  // Breakpoints stream in ascending order through a min-heap with a step
  // lane and, under kCredited, a kink lane per curve, so the scan stops at
  // the first violation without sorting the whole list: rejections, the
  // common case inside placement gates, usually violate early.  The demand
  // is carried from one breakpoint to the next; the exact sum decides each
  // breakpoint the carried one might misjudge (see the header comment).
  constexpr bool kCredited = F == Formula::kCredited;
  const double reach = bound + 1e-9;  // a lane ends past this
  // Whether the carried demand may decide; once false, false for good.
  bool filtered = true;
  double min_period = kInf;
  double max_period = 0.0;
  double dropped = kInf;  // the least lane value past `reach`
  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    const Curve& c = curves[i];
    filtered = filtered && c.cost > 0.0 && c.cost < kInf && c.d0 >= 0.0 &&
               c.d0 < kInf && c.period > 0.0 && c.period < kInf &&
               (!kCredited || (c.credit >= 0.0 && c.credit < c.period));
    if (c.cost <= 0.0) continue;
    min_period = std::min(min_period, c.period);
    max_period = std::max(max_period, c.period);
    const auto curve = static_cast<std::uint32_t>(i);
    if (c.d0 <= reach) {
      heap.push_back({c.d0, curve, 0});
    } else {
      dropped = std::min(dropped, c.d0);
    }
    if (kCredited && c.credit > 0.0) {
      if (c.d0 + c.credit <= reach) {
        heap.push_back({c.d0 + c.credit, curve, kKink});
      } else {
        dropped = std::min(dropped, c.d0 + c.credit);
      }
    }
  }
  // Every lane value, credit and period the filter meets is below `span`,
  // and no lane fires more than `lane_steps` times.
  const double span = reach + max_period;
  const double lane_steps = reach / min_period + 2.0;
  filtered = filtered && lane_steps < static_cast<double>(kKink);
  const double drift = lane_steps * kRoundoff * span;
  const double window = 2.0 * (1e-9 * std::max(1.0, max_period) + drift +
                               4.0 * kRoundoff * span);
  const auto n = static_cast<double>(curves.size());
  const double curve_error =
      kCredited ? n * (drift + 8.0 * kRoundoff * span) +
                      kRoundoff * n * n * max_period
                : 0.0;
  CarriedDemand<F> carried(curves.size());

  std::make_heap(heap.begin(), heap.end(),
                 [](const Lane& a, const Lane& b) { return a.next > b.next; });
  double last = -1.0;
  while (!heap.empty()) {
    const double t = heap.front().next;
    do {  // fire every lane at t before t is judged
      Lane& lane = heap.front();
      const Curve& c = curves[lane.curve];
      if (filtered && lane.jobs == kKink) {
        filtered = carried.kink(lane.curve);
      } else if (filtered) {
        filtered = std::floor((t - c.d0) / c.period + 1e-9) ==
                       static_cast<double>(lane.jobs) &&
                   carried.step(c, lane.curve, t);
        ++lane.jobs;
      }
      lane.next += c.period;
      if (!(lane.next <= reach)) {
        dropped = std::min(dropped, lane.next);
        lane = heap.back();
        heap.pop_back();
      }
      if (!heap.empty()) sift_root(heap);
    } while (!heap.empty() && heap.front().next == t);
    if (t == last) continue;  // not a new breakpoint
    const double after =
        heap.empty() ? dropped : std::min(heap.front().next, dropped);
    const bool isolated = t - last > window && after - t > window;
    last = t;
    if (filtered && isolated) {
      const double estimate = carried.estimate(t);
      const double margin = estimate - (t + 1e-9);
      const double error = carried.error(t, estimate, n, curve_error);
      if (margin > error) return t;
      if (-margin > error) continue;
    }
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
    if (!bound) return false;  // conservative
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

template std::optional<double> first_violation<Formula::kStep>(
    std::span<const Curve>, double);
template std::optional<double> first_violation<Formula::kCredited>(
    std::span<const Curve>, double);
template std::optional<double> uniform_scale<Formula::kStep>(
    const TaskSet&, std::span<const std::size_t>);
template std::optional<double> uniform_scale<Formula::kCredited>(
    const TaskSet&, std::span<const std::size_t>);

}  // namespace mcs::analysis::demand
