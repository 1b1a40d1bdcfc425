#include "mcs/analysis/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mcs::analysis {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

PartitionMetrics partition_metrics(const Partition& partition,
                                   ProbePolicy policy) {
  PartitionMetrics m;
  m.core_utils.reserve(partition.num_cores());
  m.feasible = true;
  double sum = 0.0;
  double lo = kInf;
  double hi = 0.0;
  UtilMatrix utils(partition.planes().num_levels());
  Theorem1Result scratch;
  for (std::size_t c = 0; c < partition.num_cores(); ++c) {
    partition.utils_on(c, utils);
    const double u = core_utilization(utils, scratch, policy);
    m.core_utils.push_back(u);
    if (u == kInf) m.feasible = false;
    sum += u;
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  m.u_sys = hi;
  m.u_min = lo;
  m.u_avg = sum / static_cast<double>(partition.num_cores());
  m.imbalance = imbalance_factor(m.core_utils);
  return m;
}

double imbalance_factor(const std::vector<double>& core_utils) {
  if (core_utils.empty()) return 0.0;
  double lo = kInf;
  double hi = 0.0;
  for (double u : core_utils) {
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  if (hi == 0.0) return 0.0;
  if (std::isinf(hi)) return 1.0;
  return (hi - lo) / hi;
}

}  // namespace mcs::analysis
