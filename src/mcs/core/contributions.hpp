// Utilization contributions and the CA-TPA task ordering (paper Sec. III-A).
//
// The utilization contribution of task tau_i at level k is
//     C_i(k) = u_i(k) / U(k)                                (Eq. 12)
// where U(k) is the total level-k utilization of all tasks at criticality
// level k or higher.  The task's overall contribution is
//     C_i = max_{k = 1..l_i} C_i(k)                         (Eq. 13)
// i.e. its largest relative weight in the system across its valid levels.
//
// CA-TPA orders tasks by decreasing C_i, breaking ties first by higher
// criticality level and then by smaller task index.
#pragma once

#include <cstddef>
#include <vector>

#include "mcs/core/taskset.hpp"

namespace mcs {

/// Per-task contribution values for one task set.
struct Contribution {
  std::size_t task_index = 0;  ///< index into the TaskSet
  double value = 0.0;          ///< C_i (Eq. 13)
  Level argmax_level = 1;      ///< the level attaining the max in Eq. 13
};

/// Computes C_i(k) for one task (Eq. 12).  U(k) values are taken from the
/// whole task set.  Returns 0 when U(k) == 0 (no demand at that level).
[[nodiscard]] double utilization_contribution(const TaskSet& ts,
                                              std::size_t task_index, Level k);

/// Computes C_i for every task (Eq. 13).
[[nodiscard]] std::vector<Contribution> utilization_contributions(
    const TaskSet& ts);

/// Returns task indices sorted by the CA-TPA ordering-priority rules:
/// decreasing C_i; ties to the higher criticality level; remaining ties to
/// the smaller task index.
[[nodiscard]] std::vector<std::size_t> order_by_contribution(const TaskSet& ts);

/// Returns task indices sorted by decreasing maximum utilization u_i(l_i)
/// (the classical FFD/BFD/WFD key); ties to higher level, then smaller index.
[[nodiscard]] std::vector<std::size_t> order_by_max_utilization(
    const TaskSet& ts);

/// The same two orders written into `out`, with the sort keys in `keys`,
/// reusing the capacity of both (the placement engine keeps them across
/// task sets).
void order_by_contribution(const TaskSet& ts, std::vector<double>& keys,
                           std::vector<std::size_t>& out);
void order_by_max_utilization(const TaskSet& ts, std::vector<double>& keys,
                              std::vector<std::size_t>& out);

}  // namespace mcs
