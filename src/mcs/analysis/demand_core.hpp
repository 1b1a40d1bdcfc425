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
// factor and a grid of kScaleGrid steps, and accept the first that passes
// (a candidate an earlier one settles is skipped; see Monotone exits).
// A candidate passes only if four side-effect-free checks all pass: the LO
// and HI busy-period bounds and the LO and HI breakpoint scans.  Both O(n)
// bounds go first: over a third of the GE-FFD gate calls in h2 trials have
// U_LO >= 1, and the LO bound rejects those at every candidate.
//
// Race.  Then the two scans are judged together in ascending t, each a
// LaneScan (first_violation's loop split into start and advance): the scan
// whose next breakpoint is earlier judges the next kRaceRun (32)
// breakpoints, and a scan starts only once its first breakpoint is the
// earlier one.  The candidate fails at the first violation either scan
// finds, and passes once both have passed.  One mode's scan often fails
// early while the other's would pass in full -- HI at large x, LO at small
// x -- and the race pays for the passing scan only up to about the failing
// one's violation.  Why no result can change: each scan is a pure function
// of its curves and its bound, and where it stops between two advances
// changes nothing it returns (demand_scan_test runs scans in runs of 1, 2,
// 5 and 32 breakpoints against the reference).  So a recorded failure is
// that mode's exact first violation, the t the scan returns when run
// alone, and that is all the monotone exits below use of it.  The race
// decides only which mode's failure a candidate records first: it changes
// how much work a candidate costs, never its verdict, and so never the
// accepted scale.  Runs, not single breakpoints: in traced sweep-demand
// runs, runs of 8 put UD-TPA/ge 12-16% slower than judging each scan in
// one go, while runs of 32 and 128 read within noise of it.  A late start,
// not both up front: a scan's start builds its lane heap, which a
// candidate whose other scan fails early never uses, and starting both
// read 2.7% fewer sweep-demand trials/s (14 of 16 alternating pairs).
//
// Monotone exits.  A larger x moves every HI member's LO deadline later and
// its HI deadline earlier, so LO demand can only fall as x rises and HI
// demand only rise.  The tier keeps the largest candidate whose LO check
// failed and the smallest whose HI check failed, and settles a later
// candidate at or below the first, or at or above the second, without
// judging it in full:
//   - A bound failure carries over exactly, because analysis_bound is
//     monotone in x in floating point.  Slope, lane count and shortest
//     period do not depend on x.  x*T, T - x*T, d0/T, 1 - d0/T, the max
//     with 0, the product with a cost > 0 and the sum in curve order each
//     keep order under rounding to nearest, so the LO intercept (d0 = x*T)
//     can only fall as x rises and the HI intercept (d0 = T - x*T) only
//     rise.  Each nullopt exit -- slope, horizon, step cap -- holds at
//     every larger intercept, and a returned bound grows with it.  Such a
//     candidate is rejected without building its curves, so once no
//     candidate is left between the two the tier ends for the cost of a
//     comparison each.
//   - A scan failure at t carries over only where an exact sum certifies
//     it.  The candidate's curves are built and each lane of that mode is
//     replayed, with the scan's own additions, to its largest value at or
//     below t.  If the exact sum at the largest of these, b, exceeds
//     b + 1e-9, the candidate fails: by the bound argument its bound of
//     that mode is nullopt or no shorter than the earlier candidate's, so
//     its scan runs, reaches t >= b and cannot pass b.  The lanes have the
//     earlier candidate's periods and step cap, so the replay is bounded.
//     The certificate takes the scan's own exact sum and 1e-9 test at a
//     breakpoint the scan visits, so no tolerance argument enters.
//     Otherwise the candidate is judged in full.  In exact arithmetic the
//     certificate always holds: the demand at t is at least the earlier
//     candidate's, and between breakpoints demand - t never rises.  On the
//     GE and DBF calls of 100 h2 trials it held for all 437,128 candidates
//     it was asked about.
// Candidates keep their order.  demand_parity_test.cpp pins verdicts and
// scales against a copy that judges every candidate and scans LO before HI
// in full, and its MonotoneExitsSettleOnlyTheirOwnSide sets fail an exit
// that looks the wrong way.
//
// Buffers.  A gate call runs on the calling thread's GateScratch: curves,
// the two LaneScans (lane heap, ramp starts), scales and the utilization
// matrix grow once and are reused, so a gate call does not allocate
// (tests/partition/allocation_free_test).  Each call counts its work --
// candidates judged, scans, judged breakpoints, exact sums -- and adds it
// to the demand.* counters once (Work::flush).
//
// Running-sum scan.  first_violation visits the distinct breakpoints in
// ascending order and returns the first t whose exact sum -- curve_demand
// summed over the curves in their order -- exceeds t + 1e-9.  Re-summing
// every curve at every t cost ~85% of the gates' time, so the scan carries
// the demand instead.  A firing step lane adds its cost to `steps`; under
// kCredited an open credit ramp adds credit + start to `ramp_sum` and one
// to `ramps` until its kink lane fires, so the estimate at t is
// E = steps - (ramp_sum - ramps*t) (kStep: E = steps).  Every lane at t
// fires before t is judged.  E decides t only where it cannot disagree
// with the exact sum; elsewhere the exact sum decides, in the same order
// as before, so the returned t is the exact sum's, bit for bit.
//
// Guards.  E is used only if every curve has finite fields, cost > 0,
// period > 0, d0 >= 0 and, under kCredited, 0 <= credit < period; and only
// while each curve's ramp opens and closes in turn (a kink with no open
// ramp, or a step while its ramp is open, ends it) and while every step
// lane's job count matched the floor formula of curve_demand,
// floor((t - d0)/period + 1e-9) + 1, when it fired.  A failed guard makes
// every t from then on take the exact sum.  Under the guards all times lie
// in [0, span], span = bound + 1e-9 + the longest period, and a lane fires
// at most K = (bound + 1e-9)/(shortest period) + 2 times, so with
// u = 2^-53 each accumulated lane value is within drift = K*u*span of its
// exact d0 + k*period (or d0 + credit + k*period).
//
// Window.  E decides t only if the previous distinct breakpoint lies
// below t - W and every pending lane value -- the heap top and the least
// value dropped past the bound -- lies above t + W, with
// W = 2*(1e-9*max(1, longest period) + drift + 4*u*span).  Then, curve by
// curve:
//   - the formula's job count at t is the lane's count.  It is at least
//     the count, because it matched at the last firing and every rounded
//     step of it is monotone in t.  It is no more, because the lane's next
//     value lies beyond t + W, and W exceeds the 1e-9*period tolerance plus
//     drift plus the formula's rounding.  A curve that has not fired has
//     d0 beyond t + W and gives 0 on the `t < d0 - 1e-9` test;
//   - a ramp E counts as open has its kink beyond t + W, so the formula's
//     credit - r is positive; a ramp E counts as closed kinked below t - W,
//     where credit - r is negative and the max gives 0, or at t itself,
//     where credit - r is within drift of 0.  The tiny |r| the formula
//     subtracts at an accumulated step, zero-credit curves included, is
//     within drift too.
//
// Error.  E and the exact sum then differ only by rounding and drift, and
// the scan bounds the gap by twice the sum of: u*(F + n + 2)*steps for F
// step additions, n curves summed and the formula's products; u times the
// summed |ramp_sum| after each ramp update since no ramp was last open
// (the sum restarts at 0 then); u*2*(ramp_sum + ramps*t + |E|) for forming
// E; and, under kCredited, n*(drift + 8*u*span) + u*n*n*(longest period)
// for each curve's credit term and the exact sum's own rounding.  If
// |E - (t + 1e-9)| exceeds that bound, E and the exact sum lie on the same
// side of t + 1e-9 and give the same verdict; if not, the exact sum
// decides.  In the 2000-trial h1 and h2 sweeps 40,419 of 1.17e9 judged
// breakpoints took the exact sum: 292 for the window, none for the error
// bound, and the rest in scans of a HI task whose C(LO) is clamped to its
// period (credit == period).  tests/analysis/demand_scan_test.cpp pins the
// returned t bit for bit against a frozen copy of the exact scan.
//
// Resumed scan.  After an LO violation at t_v, GE's tuning tier
// (ge_test.hpp) may move one HI member's scale up a grid step.  That moves
// one LO curve, j, to a later d0 and changes no other curve, so the next LO
// scan resumes at t_v (ScanResume) and returns the full scan's t:
//   1. Every breakpoint below t_v of another lane was judged by the earlier
//      scan and passed.  Curve j's demand there cannot have risen (below),
//      and the exact sum adds the same terms in the same order, each
//      rounded step monotone, so each still passes.
//   2. Curve j's new breakpoints below t_v are judged by the exact sum, in
//      order, and the first that violates is returned.
//   3. Otherwise every lane is replayed with the full scan's additions to
//      its first value at or after t_v.  The carried demand is reseeded
//      with sum(jobs * cost) over the curves; its n products and n
//      additions are charged to the error bound as 2n roundings, each
//      within u times the sum.  `last` becomes the largest value replayed.
//      The step-count guard checks each lane's last firing, which is all
//      the window argument uses of it: the count matched there, and the
//      lane's next value is bounded by drift alone.
//   4. The scan goes on as a full scan would from t_v.  Its bound may
//      differ from the earlier scan's: breakpoints past the earlier reach
//      lie above t_v, and a shorter reach only drops breakpoints.
// Monotonicity of one curve's demand in d0 at a fixed t, in floating
// point.  The job count J = floor(fl(fl(t - d0)/T + 1e-9)) + 1 and the
// early test t < fl(d0 - 1e-9) are monotone in d0, as each rounded step
// is, so J*cost can only fall as d0 grows (kStep), given J >= 0 wherever
// the formula applies, so that leaving it for the early branch's 0 never
// raises the demand.  On that branch |t - d0| <= 1e-9 + u*d0, so
// T >= 4*(1e-9 + u*t_v) keeps fl((t - d0)/T) above -0.26 and J >= 0.  A
// zero-credit curve under kCredited also subtracts m = max(0, -r),
// r = fl(fl(t - d0) - fl((J-1)*T)), positive only where the 1e-9 tolerance
// rounded J up: then m <= 1.0000001e-9*T + 3.0000001*u*t_v.  At a fixed J
// a later d0 lowers r and raises m.  Where J drops, the new demand is at
// most fl((J-1)*cost), which is at most fl(fl(J*cost) - m) while
// m <= cost*(1 - 2*J*u), J < 2^32; cost >= 2*(1e-9*T + 4*u*(t_v + T))
// ensures that.  J = 0 gives r = fl(t - d0 + T) > 0 and demand 0.  The
// scan runs in full where either guard fails, where any curve has a credit
// (its ramps would need reseeding), and for HI scans and tier-1 scans; a
// resume at t_v = 0 is a full scan.  On 100 h2 trials, 59,688 resumed
// scans replayed 7.6M lane values instead of judging them, and step 2
// found no violation.  demand_scan_test.cpp pins the resumed t against a
// fresh full scan bit for bit, including moves that land within 1e-9 below
// a tie, where only step 2 finds the violation.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis::demand {

/// If the busy-period bound exceeds this horizon, the mode conservatively
/// fails (soundness over completeness).
inline constexpr double kHorizonCap = 100000.0;
/// Likewise if the scan up to the bound could take more lane steps than
/// this.  A period below half an ulp of a lane's time would stop the lane
/// from advancing, and the scan would never end.
inline constexpr double kScanStepCap = 1e7;
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

/// The horizon a mode is scanned to, or nullopt when the mode
/// conservatively fails.  Busy-period-style bound: demand(t) <= slope*t +
/// intercept (a credit only lowers demand, so ignoring it keeps the
/// envelope an upper bound), so beyond intercept/(1 - slope) the scan
/// always passes.  nullopt when the slope reaches 1, unless the demand is
/// identically 0, when the bound exceeds kHorizonCap, and when a scan up to
/// it could take more than kScanStepCap lane steps: every lane (a step lane
/// per curve, a kink lane per credited one) at the shortest period.
[[nodiscard]] std::optional<double> analysis_bound(
    std::span<const Curve> curves);

/// Where a scan may start past t = 0: a scan of the same curves returned
/// `t`, and since then only curves[moved] changed, by moving its d0 later.
/// A resume at t = 0 is a full scan.
struct ScanResume {
  double t = 0.0;
  std::size_t moved = 0;
};

/// The work of one gate call.  Scans add to it once per scan; the gate adds
/// it to the demand.* counters once per call (flush), so a disabled
/// registry costs one branch per counter and call.
struct Work {
  std::uint64_t candidates = 0;   ///< tier-1 candidates judged in full
  std::uint64_t scans = 0;        ///< breakpoint scans started
  std::uint64_t breakpoints = 0;  ///< distinct breakpoints judged
  std::uint64_t exact_sums = 0;   ///< ... of which the exact sum took

  /// Adds the counts to demand.candidates, .scans, .breakpoints and
  /// .exact_sums.
  void flush() const;
};

namespace detail {

/// The demand a scan carries from one breakpoint to the next, and the
/// running terms of its error bound (see the file comment).  Plain values:
/// the per-curve ramp starts live in the scan's buffer.
template <Formula F>
class CarriedDemand {
 public:
  /// Fires the deadline step of curve c, ramp_of[curve], at t; false if
  /// its ramp is open.  `ramp_of` is the scan's ramp buffer (empty under
  /// kStep).
  bool step(const Curve& c, double* ramp_of, std::uint32_t curve, double t) {
    steps_ += c.cost;
    fired_ += 1.0;
    if (F == Formula::kStep || c.credit == 0.0) return true;
    double& ramp = ramp_of[curve];
    const bool closed = ramp == 0.0;
    ramp = c.credit + t;
    ramps_ += 1.0;
    ramp_sum_ += ramp;
    ramp_ops_ += std::abs(ramp_sum_);
    return closed;
  }

  /// Fires the credit kink of curve `curve`; false if its ramp is not
  /// open.
  bool kink(double* ramp_of, std::uint32_t curve) {
    double& ramp = ramp_of[curve];
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
    constexpr double kRoundoff = 0x1p-53;
    constexpr double kUnderflow = 0x1p-1000;  // subnormal rounding
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
};

}  // namespace detail

/// One breakpoint scan that can stop and go on: first_violation is start
/// plus one advance over every breakpoint, and the uniform tier races two
/// of them (see the file comment).  Owns its lane heap and carried demand,
/// so a scan kept across calls reuses its buffers.  Takes fewer than 2^32
/// curves.
template <Formula F>
class LaneScan {
 public:
  /// Starts a scan of `curves` up to `bound`; the curves must stay as they
  /// are while the scan runs.  With `resume`, the scan starts at resume->t
  /// where the file comment's argument allows, and may find its violation
  /// here.
  void start(std::span<const Curve> curves, double bound,
             std::optional<ScanResume> resume = std::nullopt);

  /// Judges the next `run` distinct breakpoints in ascending order, or
  /// fewer where the scan violates or passes its bound on the way.  Where
  /// the scan stops between two advances does not change what it returns.
  void advance(std::size_t run);

  /// Whether the scan has violated or passed every breakpoint.
  [[nodiscard]] bool finished() const noexcept {
    return violation_.has_value() || heap_.empty();
  }
  /// The first violating t, once the scan has found it.
  [[nodiscard]] std::optional<double> violation() const noexcept {
    return violation_;
  }
  /// Where the next advance starts; +infinity once finished.
  [[nodiscard]] double next() const noexcept;
  /// Adds this scan to `work`: one scan, its judged breakpoints and the
  /// exact sums among them.
  void count(Work& work) const noexcept;

 private:
  /// One breakpoint stream: a curve's deadline steps, or under kCredited
  /// its credit kinks.
  struct Lane {
    double next;          ///< next breakpoint of this lane
    std::uint32_t curve;  ///< index into curves_ (< 2^32 of them)
    std::uint32_t jobs;   ///< deadline steps fired, or kKink for a kink
  };

  void add_lane(double next, std::size_t curve, std::uint32_t jobs);

  std::span<const Curve> curves_;
  std::vector<Lane> heap_;        ///< min-heap on Lane::next
  std::vector<double> ramp_of_;   ///< per curve: open ramp's start, or 0
  detail::CarriedDemand<F> carried_;
  bool filtered_ = false;  ///< whether the carried demand may decide
  double reach_ = 0.0;     ///< a lane ends past this
  double window_ = 0.0;
  double n_ = 0.0;         ///< number of curves
  double curve_error_ = 0.0;
  double dropped_ = 0.0;   ///< the least lane value past reach_
  double last_ = -1.0;     ///< the previous distinct breakpoint
  std::optional<double> violation_;
  std::uint64_t judged_ = 0;
  std::uint64_t exact_sums_ = 0;
};

/// Scans the summed demand against t at every breakpoint up to `bound` and
/// returns the first violating t, or nullopt when the demand fits.
/// Breakpoints are the deadline steps and, under kCredited, the credit
/// kinks: between two of them demand - t never rises.  The demand is
/// carried between breakpoints, and the result is the exact sum's bit for
/// bit (see the file comment).  With `resume`, the scan starts at
/// resume->t where the file comment's argument allows and returns the same
/// t as a full scan.  One LaneScan, started and advanced to its end.
template <Formula F>
[[nodiscard]] std::optional<double> first_violation(
    std::span<const Curve> curves, double bound,
    std::optional<ScanResume> resume = std::nullopt);

/// The buffers of one thread's gate calls of one formula, kept so that a
/// gate call does not allocate once they have grown.
template <Formula F>
struct GateScratch {
  ModeCurves curves;
  std::array<LaneScan<F>, 2> scans;  ///< LO and HI
  std::vector<double> scales;        ///< per member
  std::vector<double> replay;        ///< GE tuning: a replayed state
  UtilMatrix utils{2};               ///< the members' utilizations
};

/// The calling thread's scratch.
template <Formula F>
[[nodiscard]] GateScratch<F>& gate_scratch();

/// The uniform-scale tier (see the file comment): the first candidate x
/// that passes both modes, or nullopt.  Runs on `scratch` and counts its
/// work into `work`.
template <Formula F>
[[nodiscard]] std::optional<double> uniform_scale(
    const TaskSet& ts, std::span<const std::size_t> members,
    GateScratch<F>& scratch, Work& work);

}  // namespace mcs::analysis::demand
