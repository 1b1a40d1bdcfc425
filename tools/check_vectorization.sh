#!/usr/bin/env sh
# Vectorization sanity check for the batched probe kernel.
#
# The kernel (src/mcs/analysis/batch_probe_impl.hpp, compiled once per ISA:
# batch_probe.cpp at the x86-64 baseline, batch_probe_avx2.cpp with -mavx2)
# marks its hot loops two ways:
#
#   * `// lane loop: <name>`  — plain per-core loops the auto-vectorizer
#     must handle.  Checked against GCC's -fopt-info-vec-optimized report,
#     per TU: some loops only clear the SSE2 cost model under AVX2, so the
#     baseline and AVX2 builds carry separate REQUIRED lists.
#   * `// simd loop: <name>`  — explicitly vectorized via the lane-ops packs
#     (lane_ops.hpp).  The vectorizer report says nothing about intrinsics,
#     so these are checked in the machine code: the AVX2 TU must touch ymm
#     registers and emit vcmppd/vblendvpd, and the baseline TU must emit the
#     SSE2 compare/andnot sequences the Sse2Ops blend lowers to.
#
# A third probe guards the dispatch itself: on x86-64 a TU compiled with
# MCS_LANE_REQUIRE_SIMD must build (lane_ops.hpp #errors when the scalar
# backend is selected), so a header edit that silently demotes the default
# backend to scalar fails CI here instead of just slowing the bench down.
#
# Loops NOT listed (the per-level "min term" / "base min term" reductions)
# carry genuine serial dependencies and are expected to stay scalar.
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

# --- 1. auto-vectorized lane loops, per ISA ------------------------------
# Same language/optimization surface as the Release CI build; the report
# lists one "loop vectorized" note per vectorized loop with its line.
"$CXX" -std=c++20 -O3 -DNDEBUG -Isrc -c "$BASE_TU" -o /dev/null \
  -fopt-info-vec-optimized 2>"$WORK/base.rpt"
"$CXX" -std=c++20 -O3 -DNDEBUG -Isrc -mavx2 -c "$AVX2_TU" -o /dev/null \
  -fopt-info-vec-optimized 2>"$WORK/avx2.rpt"

# Labels that must vectorize in BOTH TUs.  Line numbers are resolved from
# the markers at check time, so editing the kernel does not stale them.
REQUIRED_BOTH="hrow
hrow tile
lambda init
lambda numerator
theta
mu/fold init
Eq. (4) sum
K == 1 utilization
base numerator
base theta
numerator resume
numerator extend
theta re-term
theta resume
theta extend"

# Labels that only clear the vectorizer cost model with AVX2 (mask-byte
# stores and mixed double/uint8 writebacks stay scalar under bare SSE2).
REQUIRED_AVX2="utilization writeback
Eq. (4) mask
accept mask"

check_report() {
  # $1 = report file, $2 = TU name for messages, $3 = newline list of labels
  echo "$3" | while IFS= read -r label; do
    line=$(grep -n "lane loop: $label\$" "$IMPL" | head -1 | cut -d: -f1)
    if [ -z "$line" ]; then
      echo "FAIL: marker 'lane loop: $label' not found in $IMPL" >&2
      exit 1
    fi
    if grep -q "batch_probe_impl.hpp:$line:.*loop vectorized" "$1"; then
      echo "ok: lane loop '$label' ($IMPL:$line) vectorized [$2]"
    else
      echo "FAIL: lane loop '$label' ($IMPL:$line) did NOT vectorize [$2]" >&2
      echo "---- vectorizer notes ----" >&2
      grep "batch_probe_impl.hpp" "$1" >&2 || true
      exit 1
    fi
  done
}

check_report "$WORK/base.rpt" baseline "$REQUIRED_BOTH"
check_report "$WORK/avx2.rpt" avx2 "$REQUIRED_BOTH"
check_report "$WORK/avx2.rpt" avx2 "$REQUIRED_AVX2"

# --- 2. explicit lane-ops (simd loop) machine code -----------------------
for label in "lambda validity" "mu + fold"; do
  if ! grep -q "simd loop: $label\$" "$IMPL"; then
    echo "FAIL: marker 'simd loop: $label' not found in $IMPL" >&2
    exit 1
  fi
done

"$CXX" -std=c++20 -O3 -DNDEBUG -Isrc -mavx2 -S "$AVX2_TU" -o "$WORK/avx2.s"
if grep -q "ymm" "$WORK/avx2.s" && grep -qE "vcmppd|vblendvpd" "$WORK/avx2.s"; then
  echo "ok: simd loops use 256-bit ymm packs in the AVX2 TU"
else
  echo "FAIL: the AVX2 TU emits no ymm pack code — the explicit" >&2
  echo "      intrinsics path silently fell back to scalar" >&2
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
