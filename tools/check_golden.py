#!/usr/bin/env python3
"""Diff deterministic bench output against the goldens in tests/golden/.

Usage:
    check_golden.py --bench-dir DIR [--golden-dir DIR]
    check_golden.py --bench-dir DIR [--golden-dir DIR] --regen [--force]

Simulated output must not change unless a change means it to. Each
entry runs a bench binary from DIR and compares its stdout, or a file
it writes, with a committed golden file:

  bench_smoke.txt               bench_smoke under ZCOMP_SIMD=scalar and
                                auto, at --jobs 1 and 2, plus one
                                --metrics run (sampling must not
                                perturb the simulation) and one
                                --isolate-cells --workers 2 run
  bench_smoke_metrics.jsonl     the "sample" records of a --jobs 1
                                --metrics --trace run, without "hostMs"
  bench_smoke_trace.txt         that run's --trace file: one line per
                                simulated track group
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
                                synthetic snapshots (--smoke), under
                                ZCOMP_SIMD=scalar and auto
  bench_fig15_cache_comp_smoke_rows.json
                                the same runs' --report rows: every
                                (network, snapshot, scheme) ratio at
                                full precision

bench_smoke's trailing "wall ms" column is host time, so its stdout is
compared with trailing digits stripped from every line (the same
`sed -E 's/[0-9]+$//'` canon the CI steps use); the golden is stored
in that form. The metrics golden keeps each record's text as the
program wrote it, minus the host-clock "hostMs" member, so doubles keep
their C++ spelling; the stats golden is `json.dumps(..., indent=1)`,
which keeps key order, and so is the rows golden, taken in the
compare_reports.py canon. The trace golden keys each simulated track
group by its process name (pids follow scheduling) and holds its event
count and the SHA-256 of its sorted canonical events: spans, counter
samples and lane names, each as sorted-key JSON without the pid. The
host group (pid 0) is wall-clock time and is left out.

After an intended model change, --regen rewrites every golden from the
same runs and canon (all runs that feed one golden must agree); explain
the change in CHANGES.md. It refuses to write into a golden
directory with uncommitted git changes unless given --force, so the
regenerated files are exactly what the diff shows. Exit status 0 when
every check matches (or every golden was written), 1 otherwise.
"""

import argparse
import concurrent.futures
import difflib
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import compare_reports


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


def report_rows(path):
    """The report's rows in the compare_reports canon."""
    with open(path) as f:
        rows = compare_reports.canon(json.load(f))["rows"]
    return json.dumps(rows, indent=1) + "\n"


def trace_groups(path):
    """"name<TAB>events<TAB>sha256" per simulated track group."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    names, groups = {}, {}
    for ev in events:
        pid = ev.pop("pid")
        if pid == 0:
            continue
        if ev["ph"] == "M" and ev["name"] == "process_name":
            names[pid] = ev["args"]["name"]
        elif ev["ph"] != "M" or ev["name"] == "thread_name":
            groups.setdefault(pid, []).append(
                json.dumps(ev, sort_keys=True, separators=(",", ":")))
    lines = []
    for pid, name in names.items():
        evs = sorted(groups.get(pid, []))
        digest = hashlib.sha256("\n".join(evs).encode()).hexdigest()
        lines.append(f"{name}\t{len(evs)}\t{digest}\n")
    return "".join(sorted(lines))


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
    trace = os.path.join(tmp, "trace.json")
    out.append(("bench_smoke --jobs 1 --metrics-interval 250000 --trace",
                ["bench_smoke", "--jobs", "1", "--metrics", samples,
                 "--metrics-interval", "250000", "--trace", trace], None,
                [("bench_smoke_metrics.jsonl",
                  lambda _: metric_samples(samples)),
                 ("bench_smoke_trace.txt",
                  lambda _: trace_groups(trace))]))
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
    for argv in (["bench_instruction_overhead"], ["bench_ablation_dtypes"]):
        golden = "_".join(a.lstrip("-") for a in argv) + ".txt"
        out.append((" ".join(argv), argv, None, [(golden, same)]))
    for simd in ("scalar", "auto"):
        rows = os.path.join(tmp, f"fig15_{simd}.json")
        out.append((f"bench_fig15_cache_comp --smoke ZCOMP_SIMD={simd}",
                    ["bench_fig15_cache_comp", "--smoke", "--report", rows],
                    simd,
                    [("bench_fig15_cache_comp_smoke.txt", same),
                     ("bench_fig15_cache_comp_smoke_rows.json",
                      lambda _, rows=rows: report_rows(rows))]))
    return out


def produce(bench_dir, run):
    """(error, None) if the run fails, else (None, [(golden, text)])."""
    label, argv, simd, outputs = run
    env = dict(os.environ)
    if simd:
        env["ZCOMP_SIMD"] = simd
    proc = subprocess.run([os.path.join(bench_dir, argv[0])] + argv[1:],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}", None
    return None, [(golden, extract(proc.stdout))
                  for golden, extract in outputs]


def check(golden_dir, run, err, texts):
    """One error message per golden the run does not match."""
    label = run[0]
    if err:
        exit_msg = err.splitlines()[0]
        return [err] + [f"{exit_msg}, {g} not checked"
                        for g, _ in run[3][1:]]
    errors = []
    for golden, got in texts:
        with open(os.path.join(golden_dir, golden)) as f:
            want = f.read()
        if got == want:
            continue
        diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                    golden, label, lineterm="")
        errors.append(f"{label}: differs from {golden}\n" +
                      "\n".join(list(diff)[:40]))
    return errors


def dirty(golden_dir):
    """Uncommitted git changes under golden_dir (False outside git)."""
    proc = subprocess.run(["git", "-C", golden_dir, "status", "--porcelain",
                           "--", "."], capture_output=True, text=True)
    return proc.returncode == 0 and proc.stdout.strip() != ""


def regen(golden_dir, results):
    """Write every golden; nothing is written if a run fails or two
    runs that feed one golden disagree."""
    texts, errors = {}, []
    for run, (err, got) in results:
        if err:
            errors.append(err)
            continue
        for golden, text in got:
            if texts.setdefault(golden, text) != text:
                errors.append(f"{run[0]}: disagrees with another run "
                              f"that feeds {golden}")
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print("no golden written")
        return 1
    for golden, text in sorted(texts.items()):
        with open(os.path.join(golden_dir, golden), "w") as f:
            f.write(text)
    print(f"wrote {len(texts)} goldens to {golden_dir}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", required=True)
    ap.add_argument("--golden-dir",
                    default=os.path.join(os.path.dirname(__file__), "..",
                                         "tests", "golden"))
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the goldens from this build's output")
    ap.add_argument("--force", action="store_true",
                    help="let --regen overwrite uncommitted golden changes")
    args = ap.parse_args()
    if args.force and not args.regen:
        ap.error("--force needs --regen")
    if args.regen and not args.force and dirty(args.golden_dir):
        print(f"{args.golden_dir} has uncommitted changes; commit or "
              "revert them, or pass --force", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        todo = list(reversed(runs(tmp)))
        # The ablation runs are the longest; a few concurrent runs keep
        # the whole check near their wall time.
        with concurrent.futures.ThreadPoolExecutor(3) as pool:
            results = list(zip(todo, pool.map(
                lambda r: produce(args.bench_dir, r), todo)))
    if args.regen:
        return regen(args.golden_dir, results)
    errors = [e for run, (err, texts) in results
              for e in check(args.golden_dir, run, err, texts)]
    total = sum(len(r[3]) for r in todo)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"{total - len(errors)}/{total} checks match the goldens")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
