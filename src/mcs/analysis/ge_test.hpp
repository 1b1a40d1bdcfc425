// Tighter dual-criticality EDF-VD demand test with per-task deadline
// tuning (in the spirit of Gu & Easwaran, arXiv 2003.05160, building on
// Ekberg & Yi, ECRTS'12).
//
// analysis/dbf.hpp deliberately simplifies the HI-mode demand: every HI job
// whose deadline falls in the window counts its full HI budget.  This file
// implements the exact Ekberg-Yi-style HI curve with the carry-over credit,
// which is what makes the test strictly tighter at the same cost model:
//
//   dbf_hi(tau, l) = n * C(HI) - max(0, C(LO) - r)
//     n = (floor((l - (T - v))/T) + 1)^+      jobs with deadline in window
//     r = (l - (T - v)) mod T                 slack of the carry-over job
//     v = x * T                               the task's virtual deadline
//
// Soundness of the credit: a carry-over job at the mode switch has a
// virtual deadline at most r after the switch (the worst alignment packs n
// deadlines into the window).  LO-mode schedulability guarantees the job
// would complete C(LO) by that virtual deadline, and at most r units can
// execute after the switch on one core, so at least C(LO) - r units were
// already done before the switch and never reappear as HI demand.  A job
// whose virtual deadline precedes the switch cannot still be incomplete
// (reaching an unmet virtual deadline is itself the switch trigger), so the
// credit never double-counts.
//
// The summed HI demand is piecewise linear: it jumps at deadline steps
// (T - v) + kT and ramps with slope 1 until the credit is exhausted at
// (T - v) + kT + C(LO).  demand(l) - l is therefore maximal only at those
// two families of breakpoints, which is exactly where the test evaluates —
// no dense time grid, the "efficient" part of Gu & Easwaran's program.
//
// Search strategy (two tiers, cheap first):
//   1. uniform scales over the same candidate list dbf_dual_test uses
//      (x = 1, 1 - U_2(2), the EDF-VD factor, a grid) — because the GE
//      curves lower-bound the dbf.hpp curves pointwise at equal scales,
//      every dbf_dual_test acceptance is also a GE acceptance (dominance
//      by construction, checked in tests and the differential fuzzer);
//   2. greedy per-task tuning mirroring dbf_dual_test_tuned: grow the worst
//      LO-mode offender's scale on an LO violation, shrink the worst
//      HI-mode offender's on a HI violation, accept only when both demand
//      tests pass (sound by construction), bounded iterations.
//
// Both tiers stop as soon as their verdict is decided.  Neither exit can
// change a verdict or a scale; tests/analysis/demand_parity_test.cpp pins
// that bit for bit against a copy that runs every check and iteration.
//   - Tier 1 uses only whether a candidate passes: the AND of four
//     side-effect-free checks (the LO and HI busy-period bounds, the LO
//     and HI breakpoint scans), so their order cannot change it.  Both
//     O(n) bounds go first, then the scan that rejected the previous
//     candidate (HI for x = 1, where every HI curve steps at t = 0).  The
//     bounds go first because over a third of the GE-FFD gate calls in h2
//     trials have U_LO >= 1: the LO bound rejects them at every candidate,
//     and a HI scan ahead of it is wasted.  The order adapts, rather than
//     always putting HI first, because at small x the LO scan rejects
//     while the HI scan passes in full.  On the GE-FFD calls of 96 h2
//     trials a fixed HI-first order ran 3x as many passing HI scans
//     (29,087 against 9,757) and took 8.0 ms per trial against 5.7.
//   - Tier 2 keeps LO before HI, because the (mode, t) of the first
//     violation picks the next move.  Each move is a pure function of the
//     scales and shifts one scale by one step.  When a move takes the
//     scale moved last back to the exact double it held before that move,
//     the state of two iterations ago is back.  Both states of that 2-cycle
//     have already violated, so the loop could only alternate between them
//     until the iteration cap; the tier rejects at once, as the cap would.
//     Only the last move's index and prior value are kept.  In the same 96
//     h2 trials, 1,958 of the 2,021 calls that reach the cap get there
//     through such a 2-cycle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

struct GeOptions {
  /// Hard cap on the analysis horizon: if the busy-period bound exceeds the
  /// cap the test conservatively fails (soundness over completeness).
  double horizon_cap = 100000.0;
  /// Number of uniformly spaced scale candidates in (0, 1].
  std::size_t scale_grid = 20;
  /// Iteration cap for the greedy per-task tuning tier.  Each iteration is
  /// a full two-mode demand scan, so this bounds the cost of a rejecting
  /// call; exhausting it conservatively rejects.  A walk caught in a
  /// 2-cycle rejects as soon as it closes, with the verdict the cap would
  /// give.  The tier-1 uniform search (and with it dominance over
  /// dbf_dual_test) is unaffected.
  std::size_t greedy_iter_cap = 48;
};

struct GeResult {
  bool schedulable = false;
  /// Virtual-deadline scale per task index of the TaskSet (1.0 for LO tasks
  /// and for tasks outside the analyzed subset); meaningful only when
  /// schedulable.
  std::vector<double> scales;
};

/// One HI task's HI-mode demand over an interval of length t with virtual
/// deadline scale x (the credited Ekberg-Yi curve; 0 for LO tasks).
[[nodiscard]] double ge_dbf_hi(const McTask& task, double t, double x);

/// Runs the GE test on the subset `members` of `ts`.  Requires
/// ts.num_levels() == 2; throws std::invalid_argument otherwise.
[[nodiscard]] GeResult ge_dual_test(const TaskSet& ts,
                                    std::span<const std::size_t> members,
                                    const GeOptions& options = {});

/// Convenience: the whole set on one core.
[[nodiscard]] GeResult ge_dual_test(const TaskSet& ts,
                                    const GeOptions& options = {});

}  // namespace mcs::analysis
