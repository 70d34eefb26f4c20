#!/usr/bin/env python3
"""Diff deterministic bench output against the goldens in tests/golden/.

Usage:
    check_golden.py --bench-dir DIR [--golden-dir DIR]

Simulated output must not change unless a change means it to. Each
entry runs a bench binary from DIR and compares its stdout, or a file
it writes, with a committed golden file:

  bench_smoke.txt               bench_smoke under ZCOMP_SIMD=scalar and
                                auto, at --jobs 1 and 2, plus one
                                --metrics run (sampling must not
                                perturb the simulation) and one
                                --isolate-cells --workers 2 run
  bench_smoke_metrics.jsonl     the "sample" records of a --jobs 1
                                --metrics run, without "hostMs"
  bench_smoke_stats.json        the --report rows' stats trees of the
                                isolated run, keyed by mode
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
in that form. The metrics golden keeps each record's text as the
program wrote it, minus the host-clock "hostMs" member, so doubles keep
their C++ spelling; the stats golden is `json.dumps(..., indent=1)`,
which keeps key order. To regenerate a golden after an intended model
change, run the same command and canon by hand and explain the change
in CHANGES.md. Exit status 0 when every check matches, 1 otherwise.
"""

import argparse
import concurrent.futures
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile


def strip_ms(text):
    return re.sub(r"[0-9]+$", "", text, flags=re.MULTILINE)


def same(text):
    return text


def metric_samples(path):
    """The file's "sample" lines with the host-clock member cut out."""
    with open(path) as f:
        return "".join(re.sub(r',"hostMs":[^,}]*', "", line)
                       for line in f if '"kind":"sample"' in line)


def report_stats(path):
    """The report rows' stats trees keyed by mode, in row order."""
    with open(path) as f:
        rows = json.load(f)["rows"]
    return json.dumps({r["mode"]: r["stats"] for r in rows}, indent=1) + "\n"


def runs(tmp):
    """(label, argv, ZCOMP_SIMD or None, [(golden, extract)]) per run.

    extract(stdout) returns the text compared with the golden file.
    """
    out = []
    for simd in ("scalar", "auto"):
        for jobs in ("1", "2"):
            out.append((f"bench_smoke --jobs {jobs} ZCOMP_SIMD={simd}",
                        ["bench_smoke", "--jobs", jobs], simd,
                        [("bench_smoke.txt", strip_ms)]))
    metrics = os.path.join(tmp, "metrics.jsonl")
    out.append(("bench_smoke --jobs 1 --metrics",
                ["bench_smoke", "--jobs", "1", "--metrics", metrics,
                 "--metrics-interval", "20000"], None,
                [("bench_smoke.txt", strip_ms)]))
    samples = os.path.join(tmp, "samples.jsonl")
    out.append(("bench_smoke --jobs 1 --metrics-interval 250000",
                ["bench_smoke", "--jobs", "1", "--metrics", samples,
                 "--metrics-interval", "250000"], None,
                [("bench_smoke_metrics.jsonl",
                  lambda _: metric_samples(samples))]))
    report = os.path.join(tmp, "report.json")
    out.append(("bench_smoke --isolate-cells --workers 2",
                ["bench_smoke", "--jobs", "1", "--isolate-cells",
                 "--workers", "2", "--report", report], None,
                [("bench_smoke.txt", strip_ms),
                 ("bench_smoke_stats.json",
                  lambda _: report_stats(report))]))
    out.append(("bench_ablation_prefetch",
                ["bench_ablation_prefetch", "--jobs", "1"], None,
                [("bench_ablation_prefetch.txt", same)]))
    out.append(("bench_ablation_parallel",
                ["bench_ablation_parallel", "--jobs", "1"], None,
                [("bench_ablation_parallel.txt", same)]))
    for argv in (["bench_instruction_overhead"], ["bench_ablation_dtypes"],
                 ["bench_fig15_cache_comp", "--smoke"]):
        golden = "_".join(a.lstrip("-") for a in argv) + ".txt"
        out.append((" ".join(argv), argv, None, [(golden, same)]))
    return out


def check(bench_dir, golden_dir, run):
    """One error message per golden the run does not match."""
    label, argv, simd, outputs = run
    env = dict(os.environ)
    if simd:
        env["ZCOMP_SIMD"] = simd
    proc = subprocess.run([os.path.join(bench_dir, argv[0])] + argv[1:],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        exit_msg = f"{label}: exit {proc.returncode}"
        return ([f"{exit_msg}\n{proc.stderr[-2000:]}"] +
                [f"{exit_msg}, {g} not checked" for g, _ in outputs[1:]])
    errors = []
    for golden, extract in outputs:
        with open(os.path.join(golden_dir, golden)) as f:
            want = f.read()
        got = extract(proc.stdout)
        if got == want:
            continue
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    golden, label, lineterm="")
        errors.append(f"{label}: differs from {golden}\n" +
                      "\n".join(list(diff)[:40]))
    return errors


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
            errors = [e for errs in pool.map(
                lambda r: check(args.bench_dir, args.golden_dir, r),
                reversed(todo)) for e in errs]
    total = sum(len(r[3]) for r in todo)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"{total - len(errors)}/{total} checks match the goldens")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
