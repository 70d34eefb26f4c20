#!/usr/bin/env python3
"""Compare two --report files modulo host-side bookkeeping.

Usage:
    compare_reports.py A.json B.json
    compare_reports.py --self-test

Two runs of the same sweep may differ only in what the host did, not
in what was simulated: the "host" section (cell counters, fault
tallies, wall time, jobs), the "argv" the binary was started with,
and the per-row wall-clock fields "prepMillis" and per-policy
"simMillis". Everything else - every row, every stats tree, the
machine block - must match exactly. Exit status 0 when the reports
match, 1 when they differ (the first differing path is printed), 2
on a usage or I/O error.
"""

import json
import sys


def canon(doc):
    """The report with host-varying fields dropped."""
    doc = dict(doc)
    doc.pop("host", None)
    doc.pop("argv", None)
    rows = []
    for row in doc.get("rows", []):
        row = dict(row)
        row.pop("prepMillis", None)
        pols = row.get("policies")
        if isinstance(pols, dict):
            row["policies"] = {
                name: {k: v for k, v in pol.items() if k != "simMillis"}
                for name, pol in pols.items()
            }
        rows.append(row)
    if "rows" in doc:
        doc["rows"] = rows
    return doc


def first_difference(a, b, path="$"):
    """Path of the first difference between two JSON values, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def compare(a, b):
    return first_difference(canon(a), canon(b))


def self_test():
    row = {"model": "m", "mode": "training", "prepMillis": 1.5,
           "policies": {"zcomp": {"simMillis": 2.0, "total": {"c": 7}}}}
    ref = {"schema": "s", "argv": ["a"], "host": {"cellsCached": 0},
           "rows": [row]}
    other = json.loads(json.dumps(ref))
    other["argv"] = ["b", "--resume"]
    other["host"] = {"cellsCached": 2, "wallMillis": 9}
    other["rows"][0]["prepMillis"] = 99.0
    other["rows"][0]["policies"]["zcomp"]["simMillis"] = 42.0
    assert compare(ref, other) is None, "host/argv/wall-clock must not count"

    changed = json.loads(json.dumps(ref))
    changed["rows"][0]["policies"]["zcomp"]["total"]["c"] = 8
    assert compare(ref, changed) == "$.rows[0].policies.zcomp.total.c"

    missing = json.loads(json.dumps(ref))
    missing["rows"].append(dict(row))
    assert compare(ref, missing) == "$.rows[1]"

    failed = json.loads(json.dumps(ref))
    failed["rows"][0] = {"model": "m", "mode": "training", "failed": True,
                         "error": "killed by SIGSEGV", "attempts": 1}
    assert compare(ref, failed) is not None

    retried = json.loads(json.dumps(ref))
    retried["rows"][0]["attempts"] = 2
    assert compare(ref, retried) == "$.rows[0].attempts"

    typed = json.loads(json.dumps(ref))
    typed["rows"][0]["policies"]["zcomp"]["total"]["c"] = 7.0
    assert compare(ref, typed) is not None, "int vs float must differ"
    print("compare_reports self-test: ok")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        a, b = (json.load(open(path)) for path in argv)
    except (OSError, ValueError) as e:
        print(f"compare_reports: {e}", file=sys.stderr)
        return 2
    diff = compare(a, b)
    if diff:
        print(f"reports differ at {diff}: {argv[0]} vs {argv[1]}")
        return 1
    print(f"reports match: {argv[0]} == {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
