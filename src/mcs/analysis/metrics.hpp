// Partition-quality metrics (Eq. 10, 11, 16).
//
//   U_sys  = max_m U^{Psi_m}                      (system utilization)
//   U_avg  = (1/M) sum_m U^{Psi_m}                (average core utilization)
//   Lambda = (U_sys - min_m U^{Psi_m}) / U_sys    (workload imbalance factor)
//
// All three are computed from the per-core utilizations of Eq. (9).
#pragma once

#include <vector>

#include "mcs/analysis/core_util.hpp"
#include "mcs/core/partition.hpp"

namespace mcs::analysis {

struct PartitionMetrics {
  std::vector<double> core_utils;  ///< U^{Psi_m} per core
  double u_sys = 0.0;              ///< Eq. (10)
  double u_avg = 0.0;              ///< Eq. (11)
  double u_min = 0.0;              ///< min_m U^{Psi_m}
  double imbalance = 0.0;          ///< Lambda, Eq. (16); 0 when U_sys == 0
  bool feasible = false;           ///< every core passes the improved test
};

/// Computes the metrics of a (possibly partial) partition.  A core whose
/// subset fails the improved test makes the partition infeasible and its
/// utilization +infinity.
[[nodiscard]] PartitionMetrics partition_metrics(
    const Partition& partition,
    ProbePolicy policy = ProbePolicy::kMinOverFeasible);

/// Storage partition_metrics can reuse across partitions: the result and
/// the improved-test scratch.
struct MetricsScratch {
  PartitionMetrics result;
  UtilMatrix utils{1};
  Theorem1Result test;
};

/// partition_metrics into `scratch.result`, allocation-free once the
/// scratch has served a partition of the same shape (the Monte-Carlo trial
/// loop's form).
const PartitionMetrics& partition_metrics(
    const Partition& partition, MetricsScratch& scratch,
    ProbePolicy policy = ProbePolicy::kMinOverFeasible);

/// Lambda from an explicit vector of core utilizations (Eq. 16).  Infinite
/// entries make the result 1.  Returns 0 when all entries are zero.
[[nodiscard]] double imbalance_factor(const std::vector<double>& core_utils);

}  // namespace mcs::analysis
