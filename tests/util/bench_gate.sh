#!/bin/sh
# tools/check_bench_regression.py must pass a pair whose two sides carry the
# same ratios, fail a regressed ratio with exit status 1, and refuse a pair
# with a ratio on one side only (either side) with exit status 2.
#
# usage: bench_gate.sh <python3> <check_bench_regression.py>
python=$1
gate=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
failures=0

# bench <file> <aggregate> <tasks=speedup>...: a bench JSON with those ratios.
bench() {
  file=$1
  aggregate=$2
  shift 2
  sizes=""
  for size in "$@"; do
    sizes="$sizes${sizes:+,}{\"tasks\":${size%%=*},\"speedup\":${size#*=}}"
  done
  printf '{"bench":"b","aggregate_speedup":%s,"sizes":[%s]}\n' \
    "$aggregate" "$sizes" >"$work/$file"
}

# expect <status> <what> <fresh file>: gate the baseline against the file.
expect() {
  "$python" "$gate" "$work/base.json:$work/$3" >"$work/out" 2>&1
  status=$?
  if [ "$status" -ne "$1" ]; then
    echo "FAIL: $2: exit $status, want $1"
    cat "$work/out"
    failures=$((failures + 1))
  fi
}

bench base.json 4.0 50=4.0 100=4.0
bench same.json 3.9 50=4.1 100=3.8
bench regressed.json 2.0 50=4.0 100=4.0
bench extra.json 4.0 50=4.0 100=4.0 400=4.0
bench missing.json 4.0 50=4.0

expect 0 "same ratios within tolerance" same.json
expect 1 "aggregate regressed" regressed.json
expect 2 "fresh side has a ratio the baseline lacks" extra.json
expect 2 "baseline has a ratio the fresh side lacks" missing.json
if [ "$failures" -ne 0 ]; then
  exit 1
fi
echo "bench gate: matching 0, regressed 1, unmatched ratios 2"
