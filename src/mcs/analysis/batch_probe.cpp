// Baseline-ISA instantiation of the batched probe kernels, plus the public
// API and the runtime backend dispatcher.
//
// Kept in its own translation unit so tools/check_vectorization.sh can
// compile it alone and check that the lane-pack passes emit packed SSE2
// code; the kernel bodies live in batch_probe_impl.hpp, shared with the
// -mavx2-compiled batch_probe_avx2.cpp.
//
// Dispatch: the active KernelTable starts as the widest backend usable on
// this CPU — the AVX2 table (from the sibling TU) when the build carries it,
// this TU's baseline flags are narrower, and __builtin_cpu_supports says the
// machine has AVX2; this TU's own table otherwise.  The indirection costs
// one predicted function-pointer call per *batched* probe (hundreds of ns of
// kernel work), not per lane.
#include "mcs/analysis/batch_probe.hpp"

#define MCS_BATCH_PROBE_ISA base
#include "mcs/analysis/batch_probe_impl.hpp"
#undef MCS_BATCH_PROBE_ISA

namespace mcs::analysis {

namespace batch_kernel {

#if defined(MCS_HAVE_AVX2_TU) && !defined(__AVX2__)
// Compiled into batch_probe_avx2.cpp with -mavx2.  Not declared (or used)
// when this TU already has AVX2: then base *is* the AVX2 instantiation.
namespace avx2 {
const KernelTable& table();
}
#endif

namespace {

const KernelTable* detect_table() noexcept {
#if defined(MCS_HAVE_AVX2_TU) && !defined(__AVX2__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) return &avx2::table();
#endif
  return &base::table();
}

const KernelTable*& active_table() noexcept {
  static const KernelTable* t = detect_table();
  return t;
}

}  // namespace

const KernelTable& scalar_kernels() noexcept { return base::scalar_table(); }

}  // namespace batch_kernel

void BatchProbeScratch::resize(Level num_levels) {
  levels = num_levels;
  const std::size_t K = num_levels;
  tu.assign(K, 0.0);
  theta.assign(K > 0 ? (K - 1) * kStepLanes : 0, 0.0);
}

const char* batch_probe_backend() noexcept {
  return batch_kernel::active_table()->backend;
}

bool set_batch_probe_backend(std::string_view name) noexcept {
  using batch_kernel::KernelTable;
  const KernelTable* next = nullptr;
  if (name == "auto") {
    next = batch_kernel::detect_table();
  } else if (name == "scalar") {
    next = &batch_kernel::base::scalar_table();
  } else if (name == batch_kernel::base::table().backend) {
    next = &batch_kernel::base::table();
  }
#if defined(MCS_HAVE_AVX2_TU) && !defined(__AVX2__) && defined(__GNUC__)
  else if (name == "avx2" && __builtin_cpu_supports("avx2")) {
    next = &batch_kernel::avx2::table();
  }
#endif
  if (next == nullptr) return false;
  batch_kernel::active_table() = next;
  return true;
}

void batch_core_utilization(const LevelUtilPlanes& planes, const McTask& task,
                            ProbePolicy policy, BatchProbeScratch& scratch,
                            double* out_util) {
  batch_kernel::active_table()->util(planes, task, policy, scratch, out_util);
}

void batch_fits(const LevelUtilPlanes& planes, const McTask& task,
                BatchProbeScratch& scratch, std::uint8_t* basic,
                std::uint8_t* fits) {
  batch_kernel::active_table()->fits(planes, task, scratch, basic, fits);
}

void batch_fits_basic(const LevelUtilPlanes& planes, const McTask& task,
                      BatchProbeScratch& scratch, std::uint8_t* basic) {
  batch_kernel::active_table()->fits_basic(planes, task, scratch, basic);
}

}  // namespace mcs::analysis
