// Core utilization (Eq. 8-9) and the CA-TPA probe (Eq. 14-15).
//
// For a core subset Psi_m and each improved-test condition k, the available
// utilization is A(k) = mu(k) - theta(k) (Eq. 8; nonnegative exactly when
// condition k holds).  The core utilization is
//
//   U^{Psi_m} = +infinity                       if A(k) < 0 for all k (Eq. 9a)
//             = max_{k : A(k) >= 0} (1 - A(k))  otherwise           (Eq. 9b)
//
// The OCR of the paper leaves Eq. (9b)'s operator ambiguous (max or min over
// the feasible conditions).  We default to min — i.e. the core's utilization
// is 1 minus its *best* available capacity — because (a) it is the natural
// "available utilization" semantics and (b) it empirically reproduces the
// paper's reported 5-25% schedulability advantage of CA-TPA over FFD/BFD,
// which the max reading does not (see EXPERIMENTS.md).  The max reading is
// kept as an ablation (the `a3` spec).
#pragma once

#include "mcs/analysis/edfvd.hpp"
#include "mcs/core/partition.hpp"

namespace mcs::analysis {

/// Which feasible condition's (1 - A(k)) defines the core utilization.
enum class ProbePolicy {
  kFirstFeasible,    ///< 1 - A(k*) at the smallest feasible k (the condition
                     ///< the runtime actually operates under)
  kMinOverFeasible,  ///< 1 - max_k A(k) (best available capacity)
  kMaxOverFeasible,  ///< most conservative feasible condition
};

/// Core utilization of an already-computed Theorem-1 result.  Returns
/// +infinity when the subset is infeasible under the improved test.  For
/// K == 1, improved_test records a pseudo-condition with A(1) = 1 - U_1(1),
/// so this reports the true utilization at every K.
[[nodiscard]] double core_utilization(
    const Theorem1Result& result,
    ProbePolicy policy = ProbePolicy::kMinOverFeasible);

/// Convenience: run the improved test on `core` and fold to a utilization.
[[nodiscard]] double core_utilization(
    const UtilMatrix& core,
    ProbePolicy policy = ProbePolicy::kMinOverFeasible);

/// Allocation-free variant of the above: evaluates the improved test into
/// `scratch` (reusing its vectors) before folding.  The probe hot path.
[[nodiscard]] double core_utilization(
    const UtilMatrix& core, Theorem1Result& scratch,
    ProbePolicy policy = ProbePolicy::kMinOverFeasible);

/// Result of probing "what if task tau_i joined this core" (Eq. 14-15).
struct ProbeResult {
  bool feasible = false;   ///< Theorem 1 holds for Psi_m + {tau_i}
  double new_util = 0.0;   ///< U^{Psi_m + {tau_i}}; +inf when infeasible
  double increment = 0.0;  ///< Delta U (Eq. 14); +inf when infeasible
};

/// Evaluates the utilization increment of placing task `task_index` on core
/// `core` of `partition` (the task must currently be unassigned to that
/// computation's perspective; the partition is not modified).
/// `current_util` is the core's utilization before the addition (pass the
/// cached value to avoid recomputation).
///
/// Convenience for tests/examples: allocates a hypothetical UtilMatrix per
/// call.  Partitioner hot paths use PlacementEngine::probe (placement.hpp),
/// which performs the same computation against reusable scratch state.
[[nodiscard]] ProbeResult probe_assignment(
    const Partition& partition, std::size_t task_index, std::size_t core,
    double current_util, ProbePolicy policy = ProbePolicy::kMinOverFeasible);

}  // namespace mcs::analysis
