// Batched probe kernels over struct-of-arrays planes: 1-D (one task, all
// cores) and 2-D (a tile of tasks x all cores).
//
// 1-D: evaluates "what if task tau_i joined core m" for every core m in one
// pass: the hypothetical task row is materialized once (H(k) = plane(l_t, k)
// + u_t(k)), and the Theorem-1 / Eq. (4) arithmetic runs as a sequence of
// loops over the core lane (the innermost dimension):
//
//   * no per-core virtual calls or matrix copies,
//   * per-level branches (which row feeds a term, which policy folds) are
//     hoisted out of the lane loop,
//   * data-dependent scalar `break`s (invalid lambda_j, first feasible k)
//     become monotone per-lane validity masks expressed as ternary selects.
//
// 2-D: evaluates the core utilization of T candidate tasks against all M
// cores in one tiled pass.
// Tasks are processed in task-major tiles of kBatchProbeTileTasks; within a
// tile the hypothetical rows of every task are materialized level-by-level
// (each committed plane row is loaded once per tile, not once per task) and
// the planes stay cache-resident across the tile's per-task passes.  Output
// buffers are task-major: row t (length M) is task tasks[t] against every
// core, bit-identical to the corresponding 1-D call.
//
// Lane loops the auto-vectorizer handles are plain ternary-select loops; the
// two it abandons (the Eq. (9) policy fold and the lambda-validity counter)
// use explicit SIMD via lane_ops.hpp (AVX2/SSE2/scalar).  Backends are
// selected per translation unit at compile time and upgraded at runtime
// (batch_probe.cpp dispatches to an AVX2-compiled sibling TU when the CPU
// supports it); batch_probe_backend()/set_batch_probe_backend() expose the
// choice for tests and diagnostics.
//
// Bit-identity contract: every floating-point operation that contributes to
// a lane's result is the same operation, in the same order, as the scalar
// path (improved_test + core_utilization on a UtilMatrix with the task
// added) — on every backend, at every tile position.  Masked-out lanes may
// evaluate extra arithmetic — including divisions whose IEEE inf/NaN results
// are discarded by the selects — but a live lane's value stream is
// identical, so ProbeResults and accept masks match the scalar API bit for
// bit (enforced by tests/analysis/batch_probe_test, batch_probe_2d_test and
// the probe-parity fuzz target).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "mcs/analysis/core_util.hpp"
#include "mcs/core/soa_planes.hpp"
#include "mcs/core/taskset.hpp"

namespace mcs::analysis {

/// Tasks per 2-D tile: big enough to amortize the per-tile plane walk,
/// small enough that tile scratch (kBatchProbeTileTasks x K x M doubles)
/// stays L1/L2-resident at the largest supported geometry.
inline constexpr std::size_t kBatchProbeTileTasks = 8;

/// Reusable lane buffers for the batched kernels (all sized by resize();
/// no allocation afterwards while K and M are stable).  Planes are
/// lane-major: row r of a (K-1) x M buffer starts at data() + r * cores.
///
/// valid/sched/found hold small exact integers (0/1 or a level index) as
/// doubles so the explicit-SIMD loops operate on uniform 64-bit lanes; the
/// comparisons against them are exact.
struct BatchProbeScratch {
  void resize(Level num_levels, std::size_t num_cores);

  /// Hypothetical task rows H(k), kBatchProbeTileTasks tiles of K x M; the
  /// 1-D kernels use tile slot 0.
  std::vector<double> hrow;
  std::vector<double> lambda;      ///< lambda_j plane (Eq. 6), (K-1) x M
  std::vector<double> theta;       ///< theta(k) plane, (K-1) x M
  std::vector<double> acc;         ///< M-wide accumulator (num/suffix/sum)
  std::vector<double> prod;        ///< prod_{x<j} (1 - lambda_x), M
  std::vector<double> min_term;    ///< min{U_K(K), U_K(K-1)/(1-U_K(K))}, M
  std::vector<double> mu;          ///< running mu(k) product, M
  std::vector<double> best;        ///< policy-fold accumulator, M
  std::vector<double> first_avail; ///< A(best_k) for kFirstFeasible, M
  std::vector<double> valid;       ///< lambda_valid_count per lane, M
  std::vector<double> sched;       ///< Theorem-1 schedulable mask (0/1), M
  std::vector<double> found;       ///< fold saw a feasible condition (0/1), M

  /// Per-call shared tables over the *committed* planes, filled once per
  /// 2-D call (see BaseTables in batch_probe_impl.hpp): partial sums of the
  /// lambda numerators, theta suffix/rows and the min term, stored with the
  /// exact accumulation order of the per-task loops so a task only
  /// recomputes the partials its own hypothetical row perturbs.
  std::vector<double> base_num;      ///< pre_j(x) rows, (K+1) x (K+1) x M
  std::vector<double> base_suffix;   ///< theta suffix(k) rows, (K+1) x M
  std::vector<double> base_theta;    ///< committed theta(k) rows, (K-1) x M
  std::vector<double> base_min_term; ///< committed min term, M
  std::vector<const double*> th_rows; ///< per-task theta row pointers, K-1

  Level levels = 0;
  std::size_t cores = 0;
};

// --- 1-D: one task, all cores ----------------------------------------------

/// Batched core_utilization: out_util[m] = U^{Psi_m + {tau}} folded per
/// `policy`, +infinity where the improved test rejects — bit-identical to
/// core_utilization(with-task matrix, scratch, policy) on every core.
/// `out_util` must hold planes.num_cores() doubles.
void batch_core_utilization(const LevelUtilPlanes& planes, const McTask& task,
                            ProbePolicy policy, BatchProbeScratch& scratch,
                            double* out_util);

/// Batched Eq. (4) + Theorem-1 accept masks: basic[m] = Eq. (4) holds with
/// the task added, fits[m] = basic[m] || improved-test schedulable — the
/// batched equivalent of PlacementEngine::probe_fits per core.  Both outputs
/// must hold planes.num_cores() bytes.
void batch_fits(const LevelUtilPlanes& planes, const McTask& task,
                BatchProbeScratch& scratch, std::uint8_t* basic,
                std::uint8_t* fits);

/// Eq. (4) mask only (ablation A4).
void batch_fits_basic(const LevelUtilPlanes& planes, const McTask& task,
                      BatchProbeScratch& scratch, std::uint8_t* basic);

// --- 2-D: a tile of tasks, all cores ----------------------------------------

/// 2-D batch_core_utilization over `tasks` (indices into `ts`): out_util is
/// task-major, row t = tasks.size() consecutive M-lane rows; row t is
/// bit-identical to batch_core_utilization(planes, ts[tasks[t]], ...).
/// `out_util` must hold tasks.size() * planes.num_cores() doubles.
void batch_core_utilization_2d(const LevelUtilPlanes& planes, const TaskSet& ts,
                               std::span<const std::size_t> tasks,
                               ProbePolicy policy, BatchProbeScratch& scratch,
                               double* out_util);

// --- Backend selection -------------------------------------------------------

/// Name of the lane backend the batched kernels currently run on:
/// "avx2", "sse2", or "scalar".
[[nodiscard]] const char* batch_probe_backend() noexcept;

/// Forces a backend for differential testing: "auto" (re-run runtime
/// detection), "scalar", "sse2", or "avx2".  Returns false (and leaves the
/// active backend unchanged) if the named backend is not available in this
/// build / on this CPU.  Not thread-safe; call only from single-threaded
/// test setup.
bool set_batch_probe_backend(std::string_view name) noexcept;

namespace batch_kernel {

/// One ISA instantiation of the kernel set (internal dispatch plumbing;
/// exposed so the per-ISA translation units can hand their tables to the
/// dispatcher in batch_probe.cpp).
struct KernelTable {
  void (*util_1d)(const LevelUtilPlanes&, const McTask&, ProbePolicy,
                  BatchProbeScratch&, double*);
  void (*fits_1d)(const LevelUtilPlanes&, const McTask&, BatchProbeScratch&,
                  std::uint8_t*, std::uint8_t*);
  void (*fits_basic_1d)(const LevelUtilPlanes&, const McTask&,
                        BatchProbeScratch&, std::uint8_t*);
  void (*util_2d)(const LevelUtilPlanes&, const TaskSet&, const std::size_t*,
                  std::size_t, ProbePolicy, BatchProbeScratch&, double*);
  const char* backend;
};

}  // namespace batch_kernel

}  // namespace mcs::analysis
