// Batched probe kernels over struct-of-arrays planes: one task, all cores.
//
// Each kernel evaluates "what if task tau_i joined core m" for every core m
// in one pass over the planes, with no per-core virtual calls or matrix
// copies.  The hypothetical core is formed where it is loaded, H(j, k) =
// plane(j, k) + u_t(k) on the task's own level, and u_t(k) is read once per
// call.  The pass is pack-major (batch_probe_impl.hpp): it walks the cores
// in lane packs and runs the whole Eq. (4) / Theorem 1 / Eq. (9)
// computation of a pack with the levels as the inner loop, so a lane's
// state stays in registers.  The scalar code's data-dependent `break`s
// (invalid lambda_j, first feasible k) become monotone per-lane masks and
// exact selects.  batch_fits skips Theorem 1 for every pack whose lanes all
// pass Eq. (4).
//
// Every pass is written once against lane_ops.hpp (AVX2/SSE2/scalar).
// Backends are selected per translation unit at compile time and upgraded
// at runtime (batch_probe.cpp dispatches to an AVX2-compiled sibling TU when
// the CPU supports it); batch_probe_backend()/set_batch_probe_backend()
// expose the choice for tests and diagnostics.
//
// Bit-identity contract: every floating-point operation that contributes to
// a lane's result is the same operation, in the same order, as the scalar
// path (improved_test + core_utilization on a UtilMatrix with the task
// added) — on every backend, at every lane position.  Masked-out lanes may
// evaluate extra arithmetic — including divisions whose IEEE inf/NaN
// results are discarded by the selects — but a live lane's value stream is
// identical, so ProbeResults and accept masks match the scalar API bit for
// bit (enforced by tests/analysis/batch_probe_test and the
// probe-parity fuzz target).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mcs/analysis/core_util.hpp"
#include "mcs/core/soa_planes.hpp"
#include "mcs/core/task.hpp"

namespace mcs::analysis {

/// Lanes one kernel step covers at most: two packs of the widest lane
/// backend (AVX2, four doubles each).
inline constexpr std::size_t kStepLanes = 8;

/// Reusable buffers of the batched kernels, sized by resize() (no
/// allocation afterwards while K is stable).  The rest of a lane's state
/// lives in registers.
struct BatchProbeScratch {
  void resize(Level num_levels);

  std::vector<double> tu;     ///< u_t(1..K) of the probed task
  std::vector<double> theta;  ///< theta(k) rows of a step, (K-1) x kStepLanes

  Level levels = 0;
};

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
/// dispatcher in batch_probe.cpp).  The entries have the signatures of
/// batch_core_utilization, batch_fits and batch_fits_basic.
struct KernelTable {
  void (*util)(const LevelUtilPlanes&, const McTask&, ProbePolicy,
               BatchProbeScratch&, double*);
  void (*fits)(const LevelUtilPlanes&, const McTask&, BatchProbeScratch&,
               std::uint8_t*, std::uint8_t*);
  void (*fits_basic)(const LevelUtilPlanes&, const McTask&, BatchProbeScratch&,
                     std::uint8_t*);
  const char* backend;
};

/// The kernels on the ScalarOps reference backend, whatever backend is
/// active: a checker diffs the active backend against them without the
/// process-wide switch of set_batch_probe_backend, so it may run on many
/// threads at once.
[[nodiscard]] const KernelTable& scalar_kernels() noexcept;

}  // namespace batch_kernel

}  // namespace mcs::analysis
