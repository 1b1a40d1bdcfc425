// The sweep workloads: Monte-Carlo schedulability trials through a scheme
// line-up, one trial per op, done the way exp::run_point does them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "mcs/core/taskset.hpp"
#include "mcs/gen/taskset_generator.hpp"

namespace mcs::perfbench {

/// The acceptance test a scheme's claimed partition must pass per core.
enum class Acceptance {
  kTheorem1,  ///< Eq. (4) or Theorem 1 on the core's utilization matrix
  kDbf,       ///< analysis::dbf_dual_test on the core's members
  kGe,        ///< analysis::ge_dual_test on the core's members
};

/// The test that gates `scheme_spec`'s placements (Theorem 1 unless the
/// scheme is demand-gated).
[[nodiscard]] Acceptance acceptance_of(std::string_view scheme_spec);

/// Checks a claimed success from scratch: `cores[m]` lists the task indices
/// placed on core m in placement order.  Returns an empty string when every
/// task of `ts` is placed exactly once and every core passes `test`;
/// otherwise what is wrong.
[[nodiscard]] std::string verify_partition(
    const TaskSet& ts, std::span<const std::vector<std::size_t>> cores,
    Acceptance test);

/// A sweep workload, pinned here rather than read from exp::builtin_specs()
/// so an edit to a figure spec cannot silently change the benchmark.
struct SweepWorkload {
  std::string name;
  gen::GenParams base;          ///< everything but the NSU
  std::vector<double> nsu;      ///< points, cycled one trial at a time
  std::vector<std::string> schemes;  ///< make_scheme_spec grammar
  /// Trials per point in the set-up's exp::run_point reference pass; the
  /// timed loop's aggregates over the same prefix must match it bit for
  /// bit.  At most 64, run_point's chunk size, so both sides are one
  /// sequential fold.
  std::uint64_t reference_trials = 0;
  int tail = 99;  ///< reported tail percentile
};

[[nodiscard]] SweepWorkload sweep_paper();
[[nodiscard]] SweepWorkload sweep_demand();

[[nodiscard]] Report run_sweep(const SweepWorkload& workload,
                               const Options& options);

}  // namespace mcs::perfbench
