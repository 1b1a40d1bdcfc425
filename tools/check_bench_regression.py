#!/usr/bin/env python3
"""Bench regression gate: compare fresh --quick bench JSON against the
committed baselines.

Usage:
    tools/check_bench_regression.py [--tolerance 0.25] \
        BENCH_sim.json:build/BENCH_sim_ci.json \
        BENCH_probe.json:build/BENCH_probe_ci.json

    tools/check_bench_regression.py --discover FRESH_DIR [--baseline-dir .]

Each positional argument is a baseline:fresh pair of bench JSON files (as
written by bench_sim_engine / bench_probe / mcs_serve --selftest --out).

--discover removes the need to enumerate pairs by hand: every committed
BENCH_*.json in --baseline-dir (the repo root by default) is gated against
FRESH_DIR/BENCH_*_ci.json, and a baseline whose fresh counterpart is missing
is an error -- so adding a new committed BENCH_ file without teaching CI to
regenerate it fails loudly instead of silently going ungated.

Only the dimensionless speedup ratios are compared -- the aggregate
("aggregate") and the per-size entries ("tasks=N") -- because absolute
ns/op numbers are machine-dependent while fast-vs-reference (or
batched-vs-scalar) ratios on the same machine are not.  Both sides of a
pair must carry the same ratio labels: a label on either side only is an
error, so a baseline left stale after a bench changes its ratios fails
instead of leaving a ratio ungated.  A fresh ratio may fall below its
committed baseline by a per-ratio fractional tolerance, resolved in
precedence order:

  1. baseline JSON "gate_tolerances" entry for the ratio's exact label
     (e.g. "aggregate", "tasks=50"),
  2. baseline JSON "gate_tolerances" "default" entry,
  3. the --tolerance flag (default 0.25, which absorbs --quick jitter on
     shared CI runners).

The bench that writes the baseline owns its tolerances: stable headline
aggregates can carry a tight floor while microsecond-scale small-N sweeps
stay loose, without CI ever touching a global knob.  Speedups above
baseline never fail.

Exit status: 0 when every ratio is within tolerance, 1 on regression, 2 on
unreadable/mismatched inputs.  Stdlib only.
"""

import argparse
import glob
import json
import os
import sys


def die(message):
    """Reports unreadable or mismatched inputs: exit status 2."""
    print(f"check_bench_regression: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        die(f"cannot load {path}: {e}")


def ratios(doc, path):
    """Extracts {label: speedup} from one bench JSON document."""
    out = {}
    try:
        out["aggregate"] = float(doc["aggregate_speedup"])
        for size in doc["sizes"]:
            out[f"tasks={size['tasks']}"] = float(size["speedup"])
    except (KeyError, TypeError) as e:
        die(f"{path} is not a bench JSON ({e})")
    return out


def tolerances(doc, path, default):
    """Per-label tolerance lookup from the baseline's gate_tolerances.

    Returns a function label -> fractional tolerance, falling back to the
    document's "default" entry and then to the CLI default.
    """
    table = doc.get("gate_tolerances", {})
    if not isinstance(table, dict):
        die(f"{path} gate_tolerances must be an object of label -> "
            "fraction")
    for label, value in table.items():
        try:
            frac = float(value)
        except (TypeError, ValueError):
            die(f"{path} gate_tolerances['{label}'] is not a number")
        if not 0.0 <= frac < 1.0:
            die(f"{path} gate_tolerances['{label}'] = {frac} must be in "
                "[0, 1)")
    doc_default = float(table["default"]) if "default" in table else default
    return lambda label: float(table.get(label, doc_default))


def discover_pairs(baseline_dir, fresh_dir):
    """BASELINE:FRESH pairs for every committed BENCH_*.json.

    BENCH_foo.json gates against FRESH_DIR/BENCH_foo_ci.json (the naming
    the CI bench-smoke steps already use).
    """
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    baselines = [p for p in baselines if not p.endswith("_ci.json")]
    if not baselines:
        die(f"no BENCH_*.json in {baseline_dir}")
    pairs = []
    for baseline in baselines:
        stem = os.path.basename(baseline)[:-len(".json")]
        fresh = os.path.join(fresh_dir, stem + "_ci.json")
        if not os.path.exists(fresh):
            die(f"{baseline} is committed but {fresh} was not generated -- "
                "every committed bench baseline must be regenerated and "
                "gated")
        pairs.append(f"{baseline}:{fresh}")
    return pairs


def main():
    parser = argparse.ArgumentParser(
        description="fail when fresh bench speedups regress vs committed "
        "baselines")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="fallback fractional drop allowed below baseline when the "
        "baseline JSON carries no gate_tolerances entry (default 0.25)")
    parser.add_argument(
        "--discover", metavar="FRESH_DIR",
        help="gate every BENCH_*.json in --baseline-dir against "
        "FRESH_DIR/BENCH_*_ci.json instead of explicit pairs")
    parser.add_argument(
        "--baseline-dir", default=".",
        help="where committed BENCH_*.json baselines live (default .)")
    parser.add_argument(
        "pairs", nargs="*", metavar="BASELINE:FRESH",
        help="baseline and fresh bench JSON paths, colon-separated")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        die("--tolerance must be in [0, 1)")
    if bool(args.discover) == bool(args.pairs):
        die("pass either --discover FRESH_DIR or explicit BASELINE:FRESH "
            "pairs")
    pairs = discover_pairs(args.baseline_dir, args.discover) \
        if args.discover else args.pairs

    rows = []
    failed = False
    for pair in pairs:
        baseline_path, sep, fresh_path = pair.partition(":")
        if not sep or not fresh_path:
            die(f"malformed pair '{pair}' (expected BASELINE:FRESH)")
        baseline_doc = load(baseline_path)
        fresh_doc = load(fresh_path)
        bench = baseline_doc.get("bench", baseline_path)
        if fresh_doc.get("bench") != baseline_doc.get("bench"):
            die(f"{fresh_path} is '{fresh_doc.get('bench')}' but "
                f"{baseline_path} is '{baseline_doc.get('bench')}'")
        base = ratios(baseline_doc, baseline_path)
        fresh = ratios(fresh_doc, fresh_path)
        tol_of = tolerances(baseline_doc, baseline_path, args.tolerance)
        for side, labels, other, others in (
                (baseline_path, base, fresh_path, fresh),
                (fresh_path, fresh, baseline_path, base)):
            unmatched = sorted(set(labels) - set(others))
            if unmatched:
                die(f"{side} has {', '.join(unmatched)} but {other} does "
                    "not -- a bench and its committed baseline must carry "
                    "the same ratios")
        for label, base_speedup in sorted(base.items()):
            tol = tol_of(label)
            floor = base_speedup * (1.0 - tol)
            ok = fresh[label] >= floor
            failed = failed or not ok
            rows.append((bench, label, base_speedup, fresh[label], tol,
                         floor, "ok" if ok else "REGRESSED"))

    width = max(len(r[0]) for r in rows)
    lwidth = max(len(r[1]) for r in rows)
    print(f"{'bench':{width}}  {'ratio':{lwidth}}  {'baseline':>8}  "
          f"{'fresh':>8}  {'tol':>5}  {'floor':>8}  verdict")
    for bench, label, base_speedup, fresh_speedup, tol, floor, verdict \
            in rows:
        print(f"{bench:{width}}  {label:{lwidth}}  {base_speedup:8.3f}  "
              f"{fresh_speedup:8.3f}  {tol:5.0%}  {floor:8.3f}  {verdict}")
    if failed:
        print("\ncheck_bench_regression: speedup regressed beyond its "
              "per-ratio tolerance", file=sys.stderr)
        return 1
    print("\nall speedups within their per-ratio tolerances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
