#!/usr/bin/env python3
"""Diff deterministic bench stdout against the goldens in tests/golden/.

Usage:
    check_golden.py --bench-dir DIR [--golden-dir DIR]

Simulated output must not change unless a change means it to. Each
entry runs a bench binary from DIR and compares its stdout with a
committed golden file:

  bench_smoke.txt               bench_smoke under ZCOMP_SIMD=scalar and
                                auto, at --jobs 1 and 2, plus one
                                --metrics run (sampling must not
                                perturb the simulation)
  bench_ablation_prefetch.txt   both prefetchers on and off
  bench_ablation_parallel.txt   the Fig 12 ReLU kernels replayed on a
                                1-core and a 16-core machine
  bench_instruction_overhead.txt
                                the Section 4.4 static loop bodies of the
                                Fig 12 kernels
  bench_ablation_dtypes.txt     header amortization per element type
  bench_fig15_cache_comp_smoke.txt
                                every registered compression scheme on
                                synthetic snapshots (--smoke)

bench_smoke's trailing "wall ms" column is host time, so its stdout is
compared with trailing digits stripped from every line (the same
`sed -E 's/[0-9]+$//'` canon the CI steps use); the golden is stored
in that form. To regenerate a golden after an intended model change,
run the same command and canon by hand and explain the change in
CHANGES.md. Exit status 0 when every run matches, 1 otherwise.
"""

import argparse
import concurrent.futures
import difflib
import os
import re
import subprocess
import sys
import tempfile


def strip_ms(text):
    return re.sub(r"[0-9]+$", "", text, flags=re.MULTILINE)


def runs(tmp):
    """(label, golden, argv, ZCOMP_SIMD or None, canon) per check."""
    out = []
    for simd in ("scalar", "auto"):
        for jobs in ("1", "2"):
            out.append((f"bench_smoke --jobs {jobs} ZCOMP_SIMD={simd}",
                        "bench_smoke.txt", ["bench_smoke", "--jobs", jobs],
                        simd, strip_ms))
    metrics = os.path.join(tmp, "metrics.jsonl")
    out.append(("bench_smoke --jobs 1 --metrics", "bench_smoke.txt",
                ["bench_smoke", "--jobs", "1", "--metrics", metrics,
                 "--metrics-interval", "20000"], None, strip_ms))
    out.append(("bench_ablation_prefetch", "bench_ablation_prefetch.txt",
                ["bench_ablation_prefetch", "--jobs", "1"], None,
                lambda s: s))
    out.append(("bench_ablation_parallel", "bench_ablation_parallel.txt",
                ["bench_ablation_parallel", "--jobs", "1"], None,
                lambda s: s))
    for argv in (["bench_instruction_overhead"], ["bench_ablation_dtypes"],
                 ["bench_fig15_cache_comp", "--smoke"]):
        golden = "_".join(a.lstrip("-") for a in argv) + ".txt"
        out.append((" ".join(argv), golden, argv, None, lambda s: s))
    return out


def check(bench_dir, golden_dir, run):
    label, golden, argv, simd, canon = run
    env = dict(os.environ)
    if simd:
        env["ZCOMP_SIMD"] = simd
    proc = subprocess.run([os.path.join(bench_dir, argv[0])] + argv[1:],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    with open(os.path.join(golden_dir, golden)) as f:
        want = f.read()
    got = canon(proc.stdout)
    if got == want:
        return None
    diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                golden, label, lineterm="")
    return f"{label}: differs from {golden}\n" + "\n".join(list(diff)[:40])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--golden-dir",
                    default=os.path.join(os.path.dirname(__file__), "..",
                                         "tests", "golden"))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        todo = runs(tmp)
        # The ablation runs are the longest; a few concurrent runs keep
        # the whole check near their wall time.
        with concurrent.futures.ThreadPoolExecutor(3) as pool:
            errors = [e for e in pool.map(
                lambda r: check(args.bench_dir, args.golden_dir, r),
                reversed(todo)) if e]
    for e in errors:
        print(e, file=sys.stderr)
    print(f"{len(todo) - len(errors)}/{len(todo)} runs match the goldens")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
