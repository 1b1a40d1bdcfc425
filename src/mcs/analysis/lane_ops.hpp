// Portable SIMD lane operations for the batched probe kernels.
//
// The kernels (batch_probe_impl.hpp) keep a lane's whole Theorem-1 state in
// registers across the levels, a shape the auto-vectorizer does not take
// on, so they are written once against the small operation set below and
// compiled per backend:
//
//   * Avx2Ops    -- 4 doubles per lane op (requires __AVX2__ in the TU),
//   * Sse2Ops    -- 2 doubles per lane op (x86-64 baseline),
//   * ScalarOps  -- 1 double, plain expressions; the reference semantics.
//
// Bit-identity contract: every backend performs the same IEEE-754 operation
// per lane (add/sub/mul/div map to the corresponding vector instruction,
// which is IEEE-identical lane-wise; there is deliberately no FMA in this
// set).  Masks are full-width lane patterns (all-ones / all-zero) produced
// only by the cmp_* operations and combined only by the bit_* ones, and
// blend(mask, a, b) is an exact bitwise select -- so
// `blend(cmp_lt(x, y), a, b)` computes precisely the scalar
// `x < y ? a : b`, NaN ordering included.  bits(mask) reads a mask out as
// one bit per lane, lane i at bit i.  A kernel written against these
// ops therefore produces the same bits on every backend, which the
// batch-probe property tests and the probe-parity fuzz target enforce.
//
// Dispatch: each translation unit statically selects the widest backend its
// compile flags allow (kDefaultBackend/DefaultOps below).  Runtime dispatch
// to an AVX2-compiled sibling TU is layered on top by batch_probe.cpp via
// __builtin_cpu_supports; this header stays freestanding.
//
// Defining MCS_LANE_REQUIRE_SIMD makes a TU fail to compile if the scalar
// fallback would be selected -- tools/check_vectorization.sh uses it to
// prove the intrinsics path is active on x86-64 builds.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define MCS_LANE_OPS_X86 1
#include <immintrin.h>
#endif

namespace mcs::analysis::lanes {

/// Reference backend: one double per "lane", masks as all-ones/all-zero
/// bit patterns.  Every other backend must match it bit for bit.
struct ScalarOps {
  static constexpr std::size_t kWidth = 1;
  using Pack = double;

  static Pack load(const double* p) noexcept { return *p; }
  static void store(double* p, Pack v) noexcept { *p = v; }
  static Pack broadcast(double v) noexcept { return v; }

  static Pack add(Pack a, Pack b) noexcept { return a + b; }
  static Pack sub(Pack a, Pack b) noexcept { return a - b; }
  static Pack mul(Pack a, Pack b) noexcept { return a * b; }
  static Pack div(Pack a, Pack b) noexcept { return a / b; }

  static Pack cmp_eq(Pack a, Pack b) noexcept { return mask(a == b); }
  static Pack cmp_gt(Pack a, Pack b) noexcept { return mask(a > b); }
  static Pack cmp_ge(Pack a, Pack b) noexcept { return mask(a >= b); }
  static Pack cmp_lt(Pack a, Pack b) noexcept { return mask(a < b); }
  static Pack cmp_le(Pack a, Pack b) noexcept { return mask(a <= b); }

  static Pack bit_and(Pack a, Pack b) noexcept {
    return std::bit_cast<double>(raw(a) & raw(b));
  }
  static Pack bit_or(Pack a, Pack b) noexcept {
    return std::bit_cast<double>(raw(a) | raw(b));
  }
  /// a & ~b.
  static Pack bit_andnot(Pack a, Pack b) noexcept {
    return std::bit_cast<double>(raw(a) & ~raw(b));
  }

  /// m ? a : b per lane; m must be a mask (all-ones or all-zero).
  static Pack blend(Pack m, Pack a, Pack b) noexcept {
    return std::bit_cast<double>((raw(a) & raw(m)) | (raw(b) & ~raw(m)));
  }

  /// The sign bit, as movemask reads a lane.
  static unsigned bits(Pack m) noexcept {
    return static_cast<unsigned>(raw(m) >> 63);
  }

 private:
  static std::uint64_t raw(Pack v) noexcept {
    return std::bit_cast<std::uint64_t>(v);
  }
  static Pack mask(bool b) noexcept {
    return std::bit_cast<double>(b ? ~std::uint64_t{0} : std::uint64_t{0});
  }
};

#if defined(MCS_LANE_OPS_X86)

/// Two doubles per op; the x86-64 baseline (SSE2 is architectural).
struct Sse2Ops {
  static constexpr std::size_t kWidth = 2;
  using Pack = __m128d;

  static Pack load(const double* p) noexcept { return _mm_loadu_pd(p); }
  static void store(double* p, Pack v) noexcept { _mm_storeu_pd(p, v); }
  static Pack broadcast(double v) noexcept { return _mm_set1_pd(v); }

  static Pack add(Pack a, Pack b) noexcept { return _mm_add_pd(a, b); }
  static Pack sub(Pack a, Pack b) noexcept { return _mm_sub_pd(a, b); }
  static Pack mul(Pack a, Pack b) noexcept { return _mm_mul_pd(a, b); }
  static Pack div(Pack a, Pack b) noexcept { return _mm_div_pd(a, b); }

  static Pack cmp_eq(Pack a, Pack b) noexcept { return _mm_cmpeq_pd(a, b); }
  static Pack cmp_gt(Pack a, Pack b) noexcept { return _mm_cmpgt_pd(a, b); }
  static Pack cmp_ge(Pack a, Pack b) noexcept { return _mm_cmpge_pd(a, b); }
  static Pack cmp_lt(Pack a, Pack b) noexcept { return _mm_cmplt_pd(a, b); }
  static Pack cmp_le(Pack a, Pack b) noexcept { return _mm_cmple_pd(a, b); }

  static Pack bit_and(Pack a, Pack b) noexcept { return _mm_and_pd(a, b); }
  static Pack bit_or(Pack a, Pack b) noexcept { return _mm_or_pd(a, b); }
  static Pack bit_andnot(Pack a, Pack b) noexcept {
    return _mm_andnot_pd(b, a);
  }

  static Pack blend(Pack m, Pack a, Pack b) noexcept {
    // SSE2 has no blendv; and/andnot/or is the exact bitwise select.
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }

  static unsigned bits(Pack m) noexcept {
    return static_cast<unsigned>(_mm_movemask_pd(m));
  }
};

#if defined(__AVX2__)

/// Four doubles per op; only compiled into TUs built with AVX2 enabled
/// (batch_probe_avx2.cpp, or everything under -march=x86-64-v3).
struct Avx2Ops {
  static constexpr std::size_t kWidth = 4;
  using Pack = __m256d;

  static Pack load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, Pack v) noexcept { _mm256_storeu_pd(p, v); }
  static Pack broadcast(double v) noexcept { return _mm256_set1_pd(v); }

  static Pack add(Pack a, Pack b) noexcept { return _mm256_add_pd(a, b); }
  static Pack sub(Pack a, Pack b) noexcept { return _mm256_sub_pd(a, b); }
  static Pack mul(Pack a, Pack b) noexcept { return _mm256_mul_pd(a, b); }
  static Pack div(Pack a, Pack b) noexcept { return _mm256_div_pd(a, b); }

  static Pack cmp_eq(Pack a, Pack b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_EQ_OQ);
  }
  static Pack cmp_gt(Pack a, Pack b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
  }
  static Pack cmp_ge(Pack a, Pack b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_GE_OQ);
  }
  static Pack cmp_lt(Pack a, Pack b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
  }
  static Pack cmp_le(Pack a, Pack b) noexcept {
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
  }

  static Pack bit_and(Pack a, Pack b) noexcept { return _mm256_and_pd(a, b); }
  static Pack bit_or(Pack a, Pack b) noexcept { return _mm256_or_pd(a, b); }
  static Pack bit_andnot(Pack a, Pack b) noexcept {
    return _mm256_andnot_pd(b, a);
  }

  static Pack blend(Pack m, Pack a, Pack b) noexcept {
    return _mm256_blendv_pd(b, a, m);  // mask true picks a
  }

  static unsigned bits(Pack m) noexcept {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }
};

#endif  // __AVX2__
#endif  // MCS_LANE_OPS_X86

// The widest backend this TU's compile flags allow.
#if defined(__AVX2__) && defined(MCS_LANE_OPS_X86)
using DefaultOps = Avx2Ops;
inline constexpr const char* kDefaultBackend = "avx2";
#elif defined(MCS_LANE_OPS_X86)
using DefaultOps = Sse2Ops;
inline constexpr const char* kDefaultBackend = "sse2";
#else
using DefaultOps = ScalarOps;
inline constexpr const char* kDefaultBackend = "scalar";
#if defined(MCS_LANE_REQUIRE_SIMD)
#error "lane_ops: scalar fallback selected in a TU that requires SIMD lanes"
#endif
#endif

}  // namespace mcs::analysis::lanes
