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

  /// Starts a resumed scan from `steps`, the summed cost of the deadline
  /// steps fired before its start, formed in `ops` roundings.
  void reseed(double steps, double ops) {
    steps_ = steps;
    fired_ = ops;
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
  double fired_ = 0.0;     // roundings in steps_
  double ramps_ = 0.0;     // open credit ramps
  double ramp_sum_ = 0.0;  // their summed credit + start
  double ramp_ops_ = 0.0;  // summed |ramp_sum_| since ramps_ was last 0
  /// Per curve: credit + start of its open ramp, 0 while closed.
  std::vector<double> ramp_of_;
};

/// The exact summed demand at t: curve_demand over the curves in order.
template <Formula F>
double exact_sum(std::span<const Curve> curves, double t) {
  double demand = 0.0;
  for (const Curve& c : curves) demand += curve_demand<F>(c, t);
  return demand;
}

/// Whether a filtered scan of `curves` may resume at `from`: the guard of
/// the file comment's resume argument.  The moved curve's period keeps its
/// job count from going negative, and under kCredited there are no kink
/// lanes and its cost exceeds the most the -max(0, -r) term subtracts.
template <Formula F>
bool resumable(std::span<const Curve> curves, const ScanResume& from) {
  if (!(from.t >= 0.0) || from.moved >= curves.size()) return false;
  const Curve& moved = curves[from.moved];
  if (!(moved.period >= 4.0 * (1e-9 + kRoundoff * from.t))) return false;
  if constexpr (F == Formula::kCredited) {
    for (const Curve& c : curves) {
      if (c.credit != 0.0) return false;
    }
    return moved.cost >= 2.0 * (1e-9 * moved.period +
                                4.0 * kRoundoff * (from.t + moved.period));
  }
  return true;
}

}  // namespace

template <Formula F>
std::optional<double> first_violation(std::span<const Curve> curves,
                                      double bound,
                                      std::optional<ScanResume> resume) {
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
  for (const Curve& c : curves) {
    filtered = filtered && c.cost > 0.0 && c.cost < kInf && c.d0 >= 0.0 &&
               c.d0 < kInf && c.period > 0.0 && c.period < kInf &&
               (!kCredited || (c.credit >= 0.0 && c.credit < c.period));
    if (c.cost <= 0.0) continue;
    min_period = std::min(min_period, c.period);
    max_period = std::max(max_period, c.period);
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

  std::vector<Lane> heap;
  heap.reserve(curves.size() * 2);
  double dropped = kInf;  // the least lane value past `reach`
  double last = -1.0;     // the previous distinct breakpoint
  const auto add_lane = [&](double next, std::size_t curve,
                            std::uint32_t jobs) {
    if (next <= reach) {
      heap.push_back({next, static_cast<std::uint32_t>(curve), jobs});
    } else {
      dropped = std::min(dropped, next);
    }
  };
  if (resume && filtered && resumable<F>(curves, *resume)) {
    // Every lane from its first value at or after the start, as the full
    // scan's additions leave it; below the start only the moved curve's
    // breakpoints are judged, by the exact sum.  The guard checks each
    // lane's last firing, all the window argument uses of it.
    const double start = resume->t;
    double steps = 0.0;
    for (std::size_t i = 0; i < curves.size(); ++i) {
      const Curve& c = curves[i];
      double fired = -1.0;
      double next = c.d0;
      std::uint32_t jobs = 0;
      for (; next < start && next <= reach; next += c.period) {
        if (i == resume->moved && exact_sum<F>(curves, next) > next + 1e-9) {
          return next;
        }
        fired = next;
        ++jobs;
      }
      if (jobs > 0) {
        last = std::max(last, fired);
        filtered = filtered && std::floor((fired - c.d0) / c.period + 1e-9) ==
                                   static_cast<double>(jobs - 1);
      }
      steps += static_cast<double>(jobs) * c.cost;
      add_lane(next, i, jobs);
    }
    carried.reseed(steps, 2.0 * n);  // n products and n additions
  } else {
    for (std::size_t i = 0; i < curves.size(); ++i) {
      const Curve& c = curves[i];
      if (c.cost <= 0.0) continue;
      add_lane(c.d0, i, 0);
      if (kCredited && c.credit > 0.0) add_lane(c.d0 + c.credit, i, kKink);
    }
  }

  std::make_heap(heap.begin(), heap.end(),
                 [](const Lane& a, const Lane& b) { return a.next > b.next; });
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
    if (exact_sum<F>(curves, t) > t + 1e-9) return t;
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

/// Why a uniform candidate failed: the mode (0 = LO, 1 = HI) and its
/// scan's first violation, or nullopt where its bound failed.
struct Failure {
  std::size_t mode;
  std::optional<double> t;
};

/// Judges one uniform candidate: both bounds, then the scan of
/// `first_scan`, then the other; nullopt when it passes.  A rejection by
/// the other scan makes it `first_scan` for the next candidate.
template <Formula F>
std::optional<Failure> failure(const ModeCurves& curves,
                               std::size_t& first_scan) {
  std::array<double, 2> bounds{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = analysis_bound(curves[mode]);
    if (!bound) return Failure{mode, std::nullopt};  // conservative
    bounds[mode] = *bound;
  }
  for (const std::size_t mode : {first_scan, 1 - first_scan}) {
    if (bounds[mode] <= 0.0) continue;
    if (const auto t = first_violation<F>(curves[mode], bounds[mode])) {
      first_scan = mode;
      return Failure{mode, t};
    }
  }
  return std::nullopt;
}

/// The certificate of a scan exit: whether the exact sum at the largest
/// breakpoint of `curves` at or below t exceeds it, so that a scan of
/// `curves` that reaches t violates.
template <Formula F>
bool violates_by(std::span<const Curve> curves, double t) {
  double largest = -1.0;
  for (const Curve& c : curves) {
    if (c.cost <= 0.0) continue;
    for (double lane = c.d0; lane <= t; lane += c.period) {
      largest = std::max(largest, lane);
    }
    if (F == Formula::kCredited && c.credit > 0.0) {
      for (double lane = c.d0 + c.credit; lane <= t; lane += c.period) {
        largest = std::max(largest, lane);
      }
    }
  }
  return largest >= 0.0 && exact_sum<F>(curves, largest) > largest + 1e-9;
}

/// The largest candidate whose LO check failed or the smallest whose HI
/// check failed, with its failure.
struct Settled {
  double x;
  std::optional<double> t;  ///< the scan's first violation; nullopt: bound
};

}  // namespace

template <Formula F>
std::optional<double> uniform_scale(const TaskSet& ts,
                                    std::span<const std::size_t> members) {
  std::vector<double> scales(members.size());
  ModeCurves curves;
  std::size_t first_scan = 1;  // 0 = LO, 1 = HI; see the file comment
  // Monotone exits (see the file comment): LO demand only falls as x
  // rises and HI demand only rises, so a candidate at or below `lo`, or at
  // or above `hi`, fails as that one did.
  std::optional<Settled> lo;
  std::optional<Settled> hi;
  for (const double x : scale_candidates(ts, members)) {
    if (x <= 0.0 || x > 1.0) continue;
    const bool below_lo = lo && x <= lo->x;
    const bool above_hi = hi && x >= hi->x;
    if ((below_lo && !lo->t) || (above_hi && !hi->t)) continue;
    std::fill(scales.begin(), scales.end(), x);
    build_curves(ts, members, scales, curves);
    if ((below_lo && violates_by<F>(curves[0], *lo->t)) ||
        (above_hi && violates_by<F>(curves[1], *hi->t))) {
      continue;
    }
    const std::optional<Failure> failed = failure<F>(curves, first_scan);
    if (!failed) return x;
    std::optional<Settled>& side = failed->mode == 0 ? lo : hi;
    if (!side || (failed->mode == 0 ? x > side->x : x < side->x)) {
      side = Settled{x, failed->t};
    }
  }
  return std::nullopt;
}

template std::optional<double> first_violation<Formula::kStep>(
    std::span<const Curve>, double, std::optional<ScanResume>);
template std::optional<double> first_violation<Formula::kCredited>(
    std::span<const Curve>, double, std::optional<ScanResume>);
template std::optional<double> uniform_scale<Formula::kStep>(
    const TaskSet&, std::span<const std::size_t>);
template std::optional<double> uniform_scale<Formula::kCredited>(
    const TaskSet&, std::span<const std::size_t>);

}  // namespace mcs::analysis::demand
