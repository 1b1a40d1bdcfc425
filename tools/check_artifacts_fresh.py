#!/usr/bin/env python3
"""Artifact freshness gate: the committed sweep artifacts must be exactly
what the current code writes.

Usage:
    mcs_exp --figure all --trials 2000 --seed 1 --out FRESH_DIR --quiet
    tools/check_artifacts_fresh.py --committed artifacts --fresh FRESH_DIR

Every sweep artifact (`<spec>.csv` and `<spec>.json` with format
mcs-exp-artifact/1) on either side must exist on the other.  A CSV must
match byte for byte.  A JSON artifact must match field for field apart from
the top-level `source`, the provenance commit, which names the commit that
wrote it rather than anything it measured.  Other committed JSON files,
such as the trace summaries written by `mcs_exp --trace`, are not produced
by a plain sweep and are left alone.

Exits 1 and lists the differing files and fields when anything is stale.
"""

import argparse
import json
import os
import sys

ARTIFACT_FORMAT = "mcs-exp-artifact/1"


def sweep_artifacts(directory):
    """Names of the sweep artifacts (CSV and mcs-exp-artifact JSON) in
    `directory`."""
    names = set()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if name.endswith(".csv"):
            names.add(name)
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as f:
                if json.load(f).get("format") == ARTIFACT_FORMAT:
                    names.add(name)
    return names


def differing_fields(a, b, path=""):
    """Paths of the fields in which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}/{key}"
            if key not in a or key not in b:
                out.append(sub)
            else:
                out.extend(differing_fields(a[key], b[key], sub))
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}[] (length {len(a)} vs {len(b)})"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out.extend(differing_fields(x, y, f"{path}[{i}]"))
        return out
    return [] if a == b else [path or "/"]


def compare(committed_dir, fresh_dir):
    """List of human-readable problems; empty when everything is fresh."""
    committed = sweep_artifacts(committed_dir)
    fresh = sweep_artifacts(fresh_dir)
    problems = []
    for name in sorted(committed - fresh):
        problems.append(f"{name}: committed but not written by the sweep")
    for name in sorted(fresh - committed):
        problems.append(f"{name}: written by the sweep but not committed")
    for name in sorted(committed & fresh):
        old_path = os.path.join(committed_dir, name)
        new_path = os.path.join(fresh_dir, name)
        if name.endswith(".csv"):
            with open(old_path, "rb") as f_old, open(new_path, "rb") as f_new:
                if f_old.read() != f_new.read():
                    problems.append(f"{name}: differs")
            continue
        with open(old_path, encoding="utf-8") as f:
            old = json.load(f)
        with open(new_path, encoding="utf-8") as f:
            new = json.load(f)
        old.pop("source", None)
        new.pop("source", None)
        fields = differing_fields(old, new)
        if fields:
            shown = ", ".join(fields[:5])
            more = f" (+{len(fields) - 5} more)" if len(fields) > 5 else ""
            problems.append(
                f"{name}: {len(fields)} field(s) differ: {shown}{more}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed", default="artifacts",
                        help="directory of the committed artifacts")
    parser.add_argument("--fresh", required=True,
                        help="directory the fresh sweep wrote to")
    args = parser.parse_args()
    problems = compare(args.committed, args.fresh)
    for problem in problems:
        print(f"stale: {problem}")
    if problems:
        print(f"{len(problems)} stale artifact(s); regenerate with "
              "`mcs_exp --figure all --trials 2000 --seed 1 --out artifacts "
              "--commit \"$(git describe --always --dirty)\"`, then "
              "`mcs_report` and `mcs_report --doc ALGORITHMS.md`")
        return 1
    print(f"all {len(sweep_artifacts(args.committed))} sweep artifacts fresh")
    return 0


if __name__ == "__main__":
    sys.exit(main())
