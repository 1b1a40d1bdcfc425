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
//   1. uniform scales over the same candidates and in the same order as
//      dbf_dual_test, on the shared scan of demand_core.hpp (which explains
//      the order) — because the GE curves lower-bound the dbf.hpp curves
//      pointwise at equal scales, every dbf_dual_test acceptance is also a
//      GE acceptance (dominance by construction, checked in tests and the
//      differential fuzzer);
//   2. greedy per-task tuning (Ekberg & Yi's deadline tuning in greedy
//      form): grow the worst LO-mode offender's scale on an LO violation,
//      shrink the worst HI-mode offender's on a HI violation, accept only
//      when both demand tests pass (sound by construction), at most 48
//      iterations.  An LO move only puts one LO deadline later, so the
//      next LO scan resumes at the violation that caused it
//      (demand_core.hpp, Resumed scan); HI scans run in full.
//
// Tier 2 keeps LO before HI, because the (mode, t) of the first violation
// picks the next move.  Repeated-state exit: tier 2 ends as soon as a move
// returns the walk to a scale vector it has already visited.  A move is a
// pure function of the scales (a resumed LO scan returns the full scan's
// t), and every state before the repeat violated and moved, so from the
// repeat on the walk can only cycle through the same states until the
// iteration cap, and the cap rejects: the tier rejects at once.  It keeps
// a 64-bit fingerprint of each visited state (a wrapping sum of per-member
// mixes, updated in O(1) per move) and the list of moves, not the states;
// a fingerprint match is confirmed by replaying the moves from the start
// with the same additions and comparing bit for bit.
// tests/analysis/demand_parity_test.cpp pins this exit bit for bit
// against a copy that runs every iteration up to the cap, including a walk
// whose first repeat closes an 8-move cycle.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

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
                                    std::span<const std::size_t> members);

/// ge_dual_test(ts, members).schedulable without building the per-task
/// scales: the placement gates' form, which allocates nothing once the
/// calling thread's scan buffers have grown.
[[nodiscard]] bool ge_dual_schedulable(const TaskSet& ts,
                                       std::span<const std::size_t> members);

/// Convenience: the whole set on one core.
[[nodiscard]] GeResult ge_dual_test(const TaskSet& ts);

}  // namespace mcs::analysis
