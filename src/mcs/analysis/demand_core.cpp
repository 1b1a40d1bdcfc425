#include "mcs/analysis/demand_core.hpp"

#include <cstdint>
#include <limits>

#include "mcs/analysis/edfvd.hpp"
#include "mcs/obs/metrics.hpp"

namespace mcs::analysis::demand {

namespace {
// Registered once; increments are no-ops while metrics are disabled.
obs::Counter& g_candidates = obs::registry().counter("demand.candidates");
obs::Counter& g_scans = obs::registry().counter("demand.scans");
obs::Counter& g_breakpoints = obs::registry().counter("demand.breakpoints");
obs::Counter& g_exact_sums = obs::registry().counter("demand.exact_sums");
}  // namespace

void Work::flush() const {
  g_candidates.add(candidates);
  g_scans.add(scans);
  g_breakpoints.add(breakpoints);
  g_exact_sums.add(exact_sums);
}

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

constexpr std::uint32_t kKink = std::numeric_limits<std::uint32_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRoundoff = 0x1p-53;

/// Breakpoints the uniform tier's race judges on one scan before it looks
/// at the other again (see the file comment).
constexpr std::size_t kRaceRun = 32;

/// Restores the min-heap order on `next` after the root's key changed: one
/// sift instead of the pop and push of the std heap functions.
template <class Lane>
void sift_root(Lane* heap, std::size_t size) {
  const Lane moving = heap[0];
  std::size_t i = 0;
  for (std::size_t child = 1; child < size; child = 2 * i + 1) {
    if (child + 1 < size && heap[child + 1].next < heap[child].next) {
      ++child;
    }
    if (!(heap[child].next < moving.next)) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = moving;
}

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
void LaneScan<F>::add_lane(double next, std::size_t curve,
                           std::uint32_t jobs) {
  if (next <= reach_) {
    heap_.push_back({next, static_cast<std::uint32_t>(curve), jobs});
  } else {
    dropped_ = std::min(dropped_, next);
  }
}

template <Formula F>
void LaneScan<F>::start(std::span<const Curve> curves, double bound,
                        std::optional<ScanResume> resume) {
  // Breakpoints stream in ascending order through a min-heap with a step
  // lane and, under kCredited, a kink lane per curve, so the scan stops at
  // the first violation without sorting the whole list: rejections, the
  // common case inside placement gates, usually violate early.  The demand
  // is carried from one breakpoint to the next; the exact sum decides each
  // breakpoint the carried one might misjudge (see the header comment).
  constexpr bool kCredited = F == Formula::kCredited;
  curves_ = curves;
  heap_.clear();
  ramp_of_.assign(kCredited ? curves.size() : 0, 0.0);
  carried_ = detail::CarriedDemand<F>{};
  violation_.reset();
  judged_ = 0;
  exact_sums_ = 0;
  reach_ = bound + 1e-9;
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
  const double span = reach_ + max_period;
  const double lane_steps = reach_ / min_period + 2.0;
  filtered = filtered && lane_steps < static_cast<double>(kKink);
  const double drift = lane_steps * kRoundoff * span;
  window_ = 2.0 * (1e-9 * std::max(1.0, max_period) + drift +
                   4.0 * kRoundoff * span);
  n_ = static_cast<double>(curves.size());
  curve_error_ = kCredited ? n_ * (drift + 8.0 * kRoundoff * span) +
                                 kRoundoff * n_ * n_ * max_period
                           : 0.0;
  dropped_ = kInf;
  last_ = -1.0;

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
      for (; next < start && next <= reach_; next += c.period) {
        if (i == resume->moved) {
          ++judged_;
          ++exact_sums_;
          if (exact_sum<F>(curves, next) > next + 1e-9) {
            heap_.clear();
            violation_ = next;
            return;
          }
        }
        fired = next;
        ++jobs;
      }
      if (jobs > 0) {
        last_ = std::max(last_, fired);
        filtered = filtered && std::floor((fired - c.d0) / c.period + 1e-9) ==
                                   static_cast<double>(jobs - 1);
      }
      steps += static_cast<double>(jobs) * c.cost;
      add_lane(next, i, jobs);
    }
    carried_.reseed(steps, 2.0 * n_);  // n products and n additions
  } else {
    for (std::size_t i = 0; i < curves.size(); ++i) {
      const Curve& c = curves[i];
      if (c.cost <= 0.0) continue;
      add_lane(c.d0, i, 0);
      if (kCredited && c.credit > 0.0) add_lane(c.d0 + c.credit, i, kKink);
    }
  }
  filtered_ = filtered;
  std::make_heap(heap_.begin(), heap_.end(),
                 [](const Lane& a, const Lane& b) { return a.next > b.next; });
}

template <Formula F>
void LaneScan<F>::advance(std::size_t run) {
  // The loop works on locals and stores them back once, so that its state
  // stays in registers as in a scan that runs in one go.
  const std::span<const Curve> curves = curves_;
  Lane* const heap = heap_.data();
  std::size_t size = violation_ ? 0 : heap_.size();
  double* const ramp_of = ramp_of_.data();
  detail::CarriedDemand<F> carried = carried_;
  bool filtered = filtered_;
  double dropped = dropped_;
  double last = last_;
  const double reach = reach_;
  const double window = window_;
  std::uint64_t judged = 0;
  std::uint64_t exact = 0;
  std::optional<double> found;
  while (size > 0 && judged < run) {
    const double t = heap[0].next;
    do {  // fire every lane at t before t is judged
      Lane& lane = heap[0];
      const Curve& c = curves[lane.curve];
      if (filtered && lane.jobs == kKink) {
        filtered = carried.kink(ramp_of, lane.curve);
      } else if (filtered) {
        filtered = std::floor((t - c.d0) / c.period + 1e-9) ==
                       static_cast<double>(lane.jobs) &&
                   carried.step(c, ramp_of, lane.curve, t);
        ++lane.jobs;
      }
      lane.next += c.period;
      if (!(lane.next <= reach)) {
        dropped = std::min(dropped, lane.next);
        lane = heap[--size];
      }
      if (size > 0) sift_root(heap, size);
    } while (size > 0 && heap[0].next == t);
    if (t == last) continue;  // not a new breakpoint
    const double after = size == 0 ? dropped : std::min(heap[0].next, dropped);
    const bool isolated = t - last > window && after - t > window;
    last = t;
    ++judged;
    if (filtered && isolated) {
      const double estimate = carried.estimate(t);
      const double margin = estimate - (t + 1e-9);
      const double error = carried.error(t, estimate, n_, curve_error_);
      if (margin > error) {
        found = t;
        break;
      }
      if (-margin > error) continue;
    }
    ++exact;
    if (exact_sum<F>(curves, t) > t + 1e-9) {
      found = t;
      break;
    }
  }
  heap_.resize(found ? 0 : size);
  carried_ = carried;
  filtered_ = filtered;
  dropped_ = dropped;
  last_ = last;
  judged_ += judged;
  exact_sums_ += exact;
  if (found) violation_ = found;
}

template <Formula F>
double LaneScan<F>::next() const noexcept {
  return finished() ? kInf : heap_.front().next;
}

template <Formula F>
void LaneScan<F>::count(Work& work) const noexcept {
  ++work.scans;
  work.breakpoints += judged_;
  work.exact_sums += exact_sums_;
}

template <Formula F>
std::optional<double> first_violation(std::span<const Curve> curves,
                                      double bound,
                                      std::optional<ScanResume> resume) {
  LaneScan<F> scan;
  scan.start(curves, bound, resume);
  scan.advance(std::numeric_limits<std::size_t>::max());
  return scan.violation();
}

template <Formula F>
GateScratch<F>& gate_scratch() {
  thread_local GateScratch<F> scratch;
  return scratch;
}

namespace {

/// The largest number of uniform candidates: 1, 1 - U_2(2), the EDF-VD
/// factor and the grid.
constexpr std::size_t kMaxCandidates = kScaleGrid + 3;

/// Uniform candidates in trial order into `out`; returns how many.
/// Out-of-range ones are skipped later.
std::size_t scale_candidates(const TaskSet& ts,
                             std::span<const std::size_t> members,
                             UtilMatrix& u,
                             std::array<double, kMaxCandidates>& out) {
  u.reset(2);
  for (std::size_t i : members) u.add(ts[i]);
  std::size_t n = 0;
  out[n++] = 1.0;
  const double u22 = u.level_util(2, 2);
  if (u22 > 0.0 && u22 < 1.0) out[n++] = 1.0 - u22;
  out[n++] = dual_scaling_factor(u);
  for (std::size_t g = 1; g <= kScaleGrid; ++g) {
    out[n++] = static_cast<double>(g) / static_cast<double>(kScaleGrid);
  }
  return n;
}

/// Why a uniform candidate failed: the mode (0 = LO, 1 = HI) and its
/// scan's first violation, or nullopt where its bound failed.
struct Failure {
  std::size_t mode;
  std::optional<double> t;
};

/// The first breakpoint a scan of `curves` judges, if any is at or below
/// reach: the earliest deadline step (a kink follows its step).
double first_breakpoint(std::span<const Curve> curves) {
  double first = kInf;
  for (const Curve& c : curves) {
    if (c.cost > 0.0) first = std::min(first, c.d0);
  }
  return first;
}

/// Judges one uniform candidate: both bounds, then both scans raced in
/// ascending t (see the file comment); nullopt when it passes.
template <Formula F>
std::optional<Failure> failure(const ModeCurves& curves,
                               std::array<LaneScan<F>, 2>& scans,
                               Work& work) {
  ++work.candidates;
  std::array<double, 2> bounds{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    const std::optional<double> bound = analysis_bound(curves[mode]);
    if (!bound) return Failure{mode, std::nullopt};  // conservative
    bounds[mode] = *bound;
  }
  // Where each scan goes on: its next breakpoint, +infinity once it has
  // passed; a scan not yet started is at its first breakpoint.
  std::array<double, 2> at{};
  std::array<bool, 2> started{};
  for (std::size_t mode = 0; mode < 2; ++mode) {
    at[mode] = bounds[mode] > 0.0 ? first_breakpoint(curves[mode]) : kInf;
  }
  std::optional<Failure> failed;
  for (;;) {
    const std::size_t mode = at[1] < at[0] ? 1 : 0;  // the scan behind
    if (at[mode] == kInf) break;                    // both passed
    LaneScan<F>& scan = scans[mode];
    if (!started[mode]) {
      scan.start(curves[mode], bounds[mode]);
      started[mode] = true;
    }
    scan.advance(kRaceRun);
    if (const std::optional<double> t = scan.violation()) {
      failed = Failure{mode, t};
      break;
    }
    at[mode] = scan.next();
  }
  for (std::size_t mode = 0; mode < 2; ++mode) {
    if (started[mode]) scans[mode].count(work);
  }
  return failed;
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
                                    std::span<const std::size_t> members,
                                    GateScratch<F>& scratch, Work& work) {
  std::vector<double>& scales = scratch.scales;
  ModeCurves& curves = scratch.curves;
  scales.resize(members.size());
  std::array<double, kMaxCandidates> candidates{};
  const std::size_t count =
      scale_candidates(ts, members, scratch.utils, candidates);
  // Monotone exits (see the file comment): LO demand only falls as x
  // rises and HI demand only rises, so a candidate at or below `lo`, or at
  // or above `hi`, fails as that one did.
  std::optional<Settled> lo;
  std::optional<Settled> hi;
  for (std::size_t c = 0; c < count; ++c) {
    const double x = candidates[c];
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
    const std::optional<Failure> failed =
        failure<F>(curves, scratch.scans, work);
    if (!failed) return x;
    std::optional<Settled>& side = failed->mode == 0 ? lo : hi;
    if (!side || (failed->mode == 0 ? x > side->x : x < side->x)) {
      side = Settled{x, failed->t};
    }
  }
  return std::nullopt;
}

template class LaneScan<Formula::kStep>;
template class LaneScan<Formula::kCredited>;
template std::optional<double> first_violation<Formula::kStep>(
    std::span<const Curve>, double, std::optional<ScanResume>);
template std::optional<double> first_violation<Formula::kCredited>(
    std::span<const Curve>, double, std::optional<ScanResume>);
template GateScratch<Formula::kStep>& gate_scratch();
template GateScratch<Formula::kCredited>& gate_scratch();
template std::optional<double> uniform_scale<Formula::kStep>(
    const TaskSet&, std::span<const std::size_t>,
    GateScratch<Formula::kStep>&, Work&);
template std::optional<double> uniform_scale<Formula::kCredited>(
    const TaskSet&, std::span<const std::size_t>,
    GateScratch<Formula::kCredited>&, Work&);

}  // namespace mcs::analysis::demand
