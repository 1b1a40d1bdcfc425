// Demand-bound-function schedulability test for dual-criticality EDF-VD
// (in the spirit of Ekberg & Yi, ECRTS'12, and the DBF-based partitioned
// scheme of Gu, Guan, Deng & Yi, DATE'14 — the paper's reference [20]).
//
// High-criticality tasks run against a uniformly scaled virtual deadline
// d_i = x * T_i while the core is in LO mode and are restored at the mode
// switch.  For a scale x the core is schedulable if, for every interval
// length t up to a busy-period bound:
//
//   LO mode:  sum_i dbf_lo(tau_i, t, x) <= t
//   HI mode:  sum_{i : HI} dbf_hi(tau_i, t, x) <= t
//
// with
//   dbf_lo(tau, t, x) = (floor((t - d)/T) + 1)^+ * C(LO),  d = x*T for HI
//                       tasks and d = T for LO tasks;
//   dbf_hi(tau, t, x) = (floor((t - (T - d))/T) + 1)^+ * C(HI).
//
// dbf_hi counts every job at its full HI budget with the shortened
// effective deadline T - d (a carry-over job at the switch has at least
// T - d time to its restored real deadline); this omits Ekberg & Yi's
// executed-LO-work credit, so it is a sound (conservative) simplification —
// see DESIGN.md.  The test searches a grid of scale factors, seeded with
// the EDF-VD analytical candidates, and returns the first x that passes.
//
// Complexity: per (x, mode) the demand is checked at every step point of
// the summed dbf up to the busy-period bound — far costlier than the
// utilization tests, which is exactly the trade-off [20] explores.
//
// Search order: a candidate passes only if four side-effect-free checks
// all pass (the LO and HI busy-period bounds, the LO and HI step-point
// scans), so their order cannot change the verdict and the cheapest go
// first.  Both O(n) bounds go first, since a set with U_LO >= 1 fails the
// LO bound at every candidate.  Then comes the scan that rejected the
// previous candidate (HI for x = 1, where every HI curve steps at t = 0):
// at large x the HI scan fails early while the LO scan passes in full, and
// at small x the reverse, so a fixed order pays for one full passing scan
// per candidate on one side of the grid.  dbf_dual_test_tuned's greedy
// loop keeps LO before HI, because the first violation picks its move.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

struct DbfOptions {
  /// Hard cap on the analysis horizon: if the busy-period bound exceeds the
  /// cap the test conservatively fails (soundness over completeness).
  double horizon_cap = 100000.0;
  /// Number of uniformly spaced scale candidates in (0, 1].
  std::size_t scale_grid = 20;
};

struct DbfResult {
  bool schedulable = false;
  /// The accepted virtual-deadline scale factor (1 = no shrinking);
  /// meaningful only when schedulable.
  double scale = 1.0;
};

/// Demand of one task in LO mode over an interval of length t, with HI
/// virtual deadlines scaled by x.
[[nodiscard]] double dbf_lo(const McTask& task, double t, double x);

/// Demand of one HI task in HI mode over an interval of length t (0 for LO
/// tasks, which are dropped at the switch).
[[nodiscard]] double dbf_hi(const McTask& task, double t, double x);

/// Runs the DBF test on the subset `members` of `ts`.  Requires
/// ts.num_levels() == 2; throws std::invalid_argument otherwise.
[[nodiscard]] DbfResult dbf_dual_test(const TaskSet& ts,
                                      std::span<const std::size_t> members,
                                      const DbfOptions& options = {});

/// Convenience: the whole set on one core.
[[nodiscard]] DbfResult dbf_dual_test(const TaskSet& ts,
                                      const DbfOptions& options = {});

/// Per-task deadline tuning (Ekberg & Yi's algorithm in greedy form).
struct DbfTunedResult {
  bool schedulable = false;
  /// Virtual-deadline scale per task index of the TaskSet (1.0 for LO tasks
  /// and for tasks outside the analyzed subset); meaningful only when
  /// schedulable.
  std::vector<double> scales;
};

/// Like dbf_dual_test, but tunes each HI task's virtual-deadline scale
/// individually: starting from the uniform solution (or a mid-grid guess),
/// the greedy loop grows the scale of the worst LO-mode offender on an
/// LO-test violation and shrinks the worst HI-mode offender on an HI-test
/// violation, accepting only when both demand tests pass — so acceptance is
/// sound by construction and a strict superset of the uniform test's.
[[nodiscard]] DbfTunedResult dbf_dual_test_tuned(
    const TaskSet& ts, std::span<const std::size_t> members,
    const DbfOptions& options = {});

[[nodiscard]] DbfTunedResult dbf_dual_test_tuned(
    const TaskSet& ts, const DbfOptions& options = {});

}  // namespace mcs::analysis
