#!/usr/bin/env sh
# Vectorization sanity check for the batched probe kernel.
#
# The kernel (src/mcs/analysis/batch_probe_impl.hpp, compiled once per ISA:
# batch_probe.cpp at the x86-64 baseline, batch_probe_avx2.cpp with -mavx2)
# is written against the lane-ops packs (lane_ops.hpp) and walks the cores
# in lane packs; each walk is marked `// simd loop: <name>`.  The compiler's
# vectorizer report says nothing about intrinsics, so the checks read the
# machine code:
#
#   * every walk marker listed below must be in the kernel source;
#   * the AVX2 TU must touch ymm registers, emit vcmppd/vblendvpd, and
#     divide on ymm packs (vdivpd) — the lambda and min-term divisions run
#     in vector code;
#   * the baseline TU must emit the SSE2 compare/andnot sequences the
#     Sse2Ops blend lowers to, and packed divpd.
#
# A third probe guards the dispatch itself: on x86-64 a TU compiled with
# MCS_LANE_REQUIRE_SIMD must build (lane_ops.hpp #errors when the scalar
# backend is selected), so a header edit that silently demotes the default
# backend to scalar fails CI here instead of just slowing the bench down.
#
# Usage: tools/check_vectorization.sh [compiler]   (default: c++)
set -eu

cd "$(dirname "$0")/.."
CXX="${1:-c++}"
IMPL=src/mcs/analysis/batch_probe_impl.hpp
BASE_TU=src/mcs/analysis/batch_probe.cpp
AVX2_TU=src/mcs/analysis/batch_probe_avx2.cpp
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

arch=$(uname -m)
case "$arch" in
  x86_64|amd64) on_x86=1 ;;
  *) on_x86=0 ;;
esac
if [ "$on_x86" -eq 0 ]; then
  echo "skip: $arch is not x86-64; the lane-ops ISA checks do not apply"
  exit 0
fi

# --- 1. the lane-pack walks ----------------------------------------------
for label in "pack pairs" "single packs"; do
  if grep -q "simd loop: $label\$" "$IMPL"; then
    echo "ok: marker 'simd loop: $label' in $IMPL"
  else
    echo "FAIL: marker 'simd loop: $label' not found in $IMPL" >&2
    exit 1
  fi
done

# --- 2. packed machine code, per ISA -------------------------------------
# Same language/optimization surface as the Release CI build.
"$CXX" -std=c++20 -O3 -DNDEBUG -Isrc -mavx2 -S "$AVX2_TU" -o "$WORK/avx2.s"
if grep -q "ymm" "$WORK/avx2.s" && grep -qE "vcmppd|vblendvpd" "$WORK/avx2.s"; then
  echo "ok: simd loops use 256-bit ymm packs in the AVX2 TU"
else
  echo "FAIL: the AVX2 TU emits no ymm pack code — the explicit" >&2
  echo "      intrinsics path silently fell back to scalar" >&2
  exit 1
fi
if grep -qE "vdivpd[[:space:]].*%ymm" "$WORK/avx2.s"; then
  echo "ok: the AVX2 TU divides on ymm packs (vdivpd)"
else
  echo "FAIL: the AVX2 TU emits no packed ymm vdivpd — the lambda and" >&2
  echo "      min-term divisions no longer run in vector code" >&2
  exit 1
fi

"$CXX" -std=c++20 -O3 -DNDEBUG -Isrc -S "$BASE_TU" -o "$WORK/base.s"
if grep -qE "cmpltpd|cmplepd|cmpeqpd|cmppd" "$WORK/base.s" \
   && grep -qE "andnpd|andnps" "$WORK/base.s"; then
  echo "ok: simd loops use SSE2 compare/blend packs in the baseline TU"
else
  echo "FAIL: the baseline TU emits no SSE2 pack code — the explicit" >&2
  echo "      intrinsics path silently fell back to scalar" >&2
  exit 1
fi
if grep -qE "^[[:space:]]*divpd[[:space:]]" "$WORK/base.s"; then
  echo "ok: the baseline TU divides on SSE2 packs (divpd)"
else
  echo "FAIL: the baseline TU emits no packed divpd — the lambda and" >&2
  echo "      min-term divisions no longer run in vector code" >&2
  exit 1
fi

# --- 3. scalar-fallback guard --------------------------------------------
cat > "$WORK/require_simd.cpp" <<'EOF'
#define MCS_LANE_REQUIRE_SIMD 1
#include "mcs/analysis/lane_ops.hpp"
int main() { return 0; }
EOF
if "$CXX" -std=c++20 -O2 -Isrc -c "$WORK/require_simd.cpp" \
     -o /dev/null 2>"$WORK/require.err"; then
  echo "ok: lane-ops default backend is SIMD on x86-64"
else
  echo "FAIL: lane_ops.hpp selected the scalar backend on x86-64:" >&2
  cat "$WORK/require.err" >&2
  exit 1
fi

echo "vectorization check passed"
