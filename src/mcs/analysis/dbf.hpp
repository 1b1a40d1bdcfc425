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
// the EDF-VD analytical candidates, and returns the first x that passes
// (the search order is explained in demand_core.hpp).
//
// Complexity: per (x, mode) the demand is checked at every step point of
// the summed dbf up to the busy-period bound — far costlier than the
// utilization tests, which is exactly the trade-off [20] explores.
#pragma once

#include <cstddef>
#include <span>

#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

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
                                      std::span<const std::size_t> members);

/// Convenience: the whole set on one core.
[[nodiscard]] DbfResult dbf_dual_test(const TaskSet& ts);

}  // namespace mcs::analysis
