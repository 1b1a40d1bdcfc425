#!/bin/sh
# sweep_cli --figure and mcs_exp --figure run a builtin spec through the
# same exp::run_points scheduler, so both must print the same four panels
# (everything from the `=== <title> ===` line through the
# `[<n> task sets per point]` line).
#
# usage: cli_parity.sh <sweep_cli> <mcs_exp>
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

panels() {
  sed -n '/^=== /,/ task sets per point\]$/p' "$1"
}

"$1" --figure h2 --trials 20 --threads 2 >"$dir/sweep_cli.out" 2>/dev/null
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: sweep_cli exited $status"
  exit 1
fi
"$2" --figure h2 --trials 20 --threads 2 --no-resume --out "$dir/artifacts" \
  >"$dir/mcs_exp.out" 2>/dev/null
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: mcs_exp exited $status"
  exit 1
fi

panels "$dir/sweep_cli.out" >"$dir/sweep_cli.panels"
panels "$dir/mcs_exp.out" >"$dir/mcs_exp.panels"
if [ ! -s "$dir/sweep_cli.panels" ]; then
  echo "FAIL: sweep_cli printed no panels"
  exit 1
fi
if ! cmp -s "$dir/sweep_cli.panels" "$dir/mcs_exp.panels"; then
  echo "FAIL: sweep_cli and mcs_exp print different h2 panels"
  diff "$dir/sweep_cli.panels" "$dir/mcs_exp.panels"
  exit 1
fi
echo "sweep_cli and mcs_exp print the same h2 panels"
