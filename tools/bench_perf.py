#!/usr/bin/env python3
"""Compare two bench_perf BENCH_*.json snapshots and gate regressions.

Usage:
    bench_perf.py compare BASELINE.json NEW.json [--threshold 0.05]

Exit status 1 when any throughput rate fell, or any wall-clock rose,
by more than the threshold fraction relative to the baseline; 0
otherwise. Two snapshots are only fully comparable when they come
from the same host and the same mode:

  - different host (``host.node``): every comparison is advisory -
    findings are printed as warnings and the exit status stays 0,
    because cross-host rates say nothing about a code regression;
  - different ``quick`` flags (a --quick CI run against a committed
    full-mode baseline): the figure subset differs, so only the
    micro-kernel rates - which are size-invariant throughputs - are
    gated, and the figure numbers are skipped with a note.

Schema: zcomp-bench-perf-v1 (see EXPERIMENTS.md, "bench_perf
trajectory").
"""

import argparse
import json
import sys

SCHEMA = "zcomp-bench-perf-v1"

# metric path -> direction ("rate": higher is better, "time": lower
# is better). Figure metrics are per named figure subset.
MICRO_METRICS = {
    "vecRoundTripsPerSec": "rate",
    "fpcLinesPerSec": "rate",
    "fpcdLinesPerSec": "rate",
    "ebpcLinesPerSec": "rate",
    "zvcLinesPerSec": "rate",
    "zeroLinesPerSec": "rate",
    "gemmMacsPerSec": "rate",
}
FIGURE_METRICS = {
    "wallSeconds": "time",
    "cellsPerSec": "rate",
    # Wall-clock ratio of the same subset with --metrics sampling on
    # vs off (1.0 = telemetry is free); compared only when both
    # snapshots recorded it.
    "metricsOverheadRatio": "time",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: schema {doc.get('schema')!r} != {SCHEMA!r}")
    return doc


def compare_value(label, direction, old, new, threshold, findings):
    if old <= 0:
        return
    if direction == "rate":
        change = (new - old) / old
        regressed = change < -threshold
    else:
        change = (new - old) / old
        regressed = change > threshold
    if regressed:
        findings.append(
            f"{label}: {old:.6g} -> {new:.6g} ({change:+.1%}, "
            f"threshold {threshold:.0%})"
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    cmp_p = sub.add_parser("compare", help="gate NEW against BASELINE")
    cmp_p.add_argument("baseline")
    cmp_p.add_argument("new")
    cmp_p.add_argument("--threshold", type=float, default=0.05,
                       help="regression fraction (default 0.05)")
    args = ap.parse_args()

    base = load(args.baseline)
    new = load(args.new)

    advisory = False
    if base.get("host", {}).get("node") != new.get("host", {}).get("node"):
        print(
            "warning: snapshots come from different hosts "
            f"({base.get('host', {}).get('node')!r} vs "
            f"{new.get('host', {}).get('node')!r}); comparison is "
            "advisory only"
        )
        advisory = True

    figures_comparable = base.get("quick") == new.get("quick")
    if not figures_comparable:
        print(
            "note: quick flags differ "
            f"({base.get('quick')} vs {new.get('quick')}); figure "
            "subsets are not comparable - gating micro rates only"
        )

    base_bk = {b["backend"]: b for b in base.get("backends", [])}
    new_bk = {b["backend"]: b for b in new.get("backends", [])}
    findings = []
    compared = 0

    for name in sorted(base_bk):
        if name not in new_bk:
            print(f"warning: backend {name!r} missing from {args.new}")
            continue
        ob, nb = base_bk[name], new_bk[name]
        for metric, direction in MICRO_METRICS.items():
            if metric in ob.get("micro", {}) and metric in nb.get("micro", {}):
                compare_value(
                    f"{name}.micro.{metric}", direction,
                    ob["micro"][metric], nb["micro"][metric],
                    args.threshold, findings,
                )
                compared += 1
        if not figures_comparable:
            continue
        for fig in sorted(ob.get("figures", {})):
            if fig not in nb.get("figures", {}):
                print(f"warning: figure {fig!r} missing from {args.new}")
                continue
            for metric, direction in FIGURE_METRICS.items():
                if metric in ob["figures"][fig] and metric in nb["figures"][fig]:
                    compare_value(
                        f"{name}.figures.{fig}.{metric}", direction,
                        ob["figures"][fig][metric],
                        nb["figures"][fig][metric],
                        args.threshold, findings,
                    )
                    compared += 1

    if compared == 0:
        sys.exit("error: no comparable metrics between the two snapshots")

    if findings:
        kind = "advisory (cross-host)" if advisory else "REGRESSION"
        for f in findings:
            print(f"{kind}: {f}")
        if not advisory:
            print(f"bench_perf.py: {len(findings)} regression(s) "
                  f"across {compared} metric(s)")
            sys.exit(1)
    print(f"bench_perf.py: ok ({compared} metric(s) compared, "
          f"{len(findings)} advisory finding(s))")


if __name__ == "__main__":
    main()
