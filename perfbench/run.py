#!/usr/bin/env python3
"""Build and run the zcomp benchmark (see perfbench/README.md).

One run, as BENCHMARK.json's command gives it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds perfbench/ (and with it the simulator sources) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes its output through: the run record, then the
result object as the last line of stdout.

Other modes:

    run.py --steadiness N --workload NAME [--seconds S] [--seed K]
           [--vary-seed] [--sets M]
        repeat the workload N times, all at seed K (with --vary-seed
        at seeds K..K+N-1), and print, for each metric, the median,
        quartiles, IQR as a share of the median, min, max and sample
        count; with --sets M, run M sets with their runs interleaved
        (set 1 run 1, set 2 run 1, ..., set 1 run 2, ...) and also
        print the largest shift of a set's median from the first
        set's;
    run.py --test
        build and run the benchmark's own tests (units, one-op smoke
        runs per workload, a perturbed-expectation run);
    run.py --write-expected
        regenerate perfbench/expected.json for the pinned seed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["study-train", "relu-deepbench", "fig15-snapshots"]
PINNED_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir(suffix=""):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench" + suffix)


def build(bdir, tests=False):
    """Configure (once) and build; all build output goes to stderr."""
    for need in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("not inside a zcomp checkout: %s is missing" % need)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if tests:
            cmd.append("-DPERFBENCH_TESTS=ON")
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "zcomp_perfbench")


def code_id():
    """git sha of the checkout, or a content hash of its sources when
    the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def child_env():
    # ZCOMP_JOBS / ZCOMP_SIMD must never reach the numbers: the
    # benchmark pins the pool size and SIMD backend itself.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ZCOMP_")}


def run_once(exe, workload, seed, seconds, trace, extra=()):
    """Run one benchmark process; returns (stdout lines, exit code)."""
    bdir = os.path.dirname(exe)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--expected", EXPECTED, "--git-sha", code_id(),
           "--record-out", os.path.join(bdir, "runs.jsonl")]
    if trace:
        cmd += ["--trace-out",
                os.path.join(bdir, "trace-%s-%d.json" % (workload, seed))]
    cmd += list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       env=child_env(), timeout=RUN_TIMEOUT_S)
    return r.stdout.splitlines(), r.returncode


def summarize(vals):
    """Median, quartiles (statistics.quantiles, n=4), IQR as a share
    of the median, min, max and count of one metric's values."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
        else (vals[0], None, vals[0])
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else 0.0,
            "min": min(vals), "max": max(vals), "n": len(vals)}


def steadiness(exe, args):
    sets = [[] for _ in range(args.sets)]
    for i in range(args.steadiness):
        seed = args.seed + i if args.vary_seed else args.seed
        for k, runs in enumerate(sets):
            lines, rc = run_once(exe, args.workload, seed, args.seconds,
                                 args.trace)
            if rc != 0 or not lines:
                fail("run with seed %d exited %d" % (seed, rc))
            res = json.loads(lines[-1])
            record = json.loads(lines[-2])["run_record"]
            runs.append(res)
            print("set %d seed %-4d correct=%s attempted=%d failed=%d "
                  "load=%s->%s  %s"
                  % (k + 1, seed, res["correct"], res["attempted"],
                     res["failed"], record["loadavg_start"][0],
                     record["loadavg_end"][0],
                     "  ".join("%s=%.6g" % (n, v["value"])
                               for n, v in sorted(res["metrics"].items())
                               if not args.trace)),
                  flush=True)
    report = {"workload": args.workload, "seconds": args.seconds,
              "seed": args.seed, "vary_seed": args.vary_seed, "sets": []}
    for k, runs in enumerate(sets):
        summary = {name: summarize([r["metrics"][name]["value"]
                                    for r in runs])
                   for name in sorted(runs[0]["metrics"])}
        report["sets"].append(summary)
        print("\nset %d\n%-34s %12s %12s %12s %8s %12s %12s %3s"
              % (k + 1, "metric", "median", "q1", "q3", "iqr/med", "min",
                 "max", "n"))
        for name, s in summary.items():
            print("%-34s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %3d"
                  % (name, s["median"], s["q1"], s["q3"],
                     s["iqr_over_median"], s["min"], s["max"], s["n"]))
    if len(sets) > 1:
        first = report["sets"][0]
        shift = {name: max(abs(s[name]["median"] / first[name]["median"]
                               - 1) if first[name]["median"] else 0.0
                           for s in report["sets"][1:])
                 for name in first}
        report["max_median_shift"] = shift
        print("\nlargest median shift from set 1:")
        for name, v in shift.items():
            print("%-34s %8.4f" % (name, v))
    print(json.dumps(report))


def self_test():
    bdir = build_dir("-tests")
    build(bdir, tests=True)
    r = subprocess.run(["ctest", "--output-on-failure"], cwd=bdir,
                       env=child_env())
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--test", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    if args.test:
        sys.exit(self_test())
    exe = build(build_dir())
    if args.write_expected:
        for w in WORKLOADS:
            _, rc = run_once(exe, w, PINNED_SEED, 0, 1,
                             ["--write-expected"])
            if rc != 0:
                fail("writing expected results for %s failed" % w)
        return
    if not args.workload:
        fail("--workload is required")
    if args.steadiness:
        steadiness(exe, args)
        return
    lines, rc = run_once(exe, args.workload, args.seed, args.seconds,
                         args.trace)
    for line in lines:
        print(line)
    sys.exit(rc)


if __name__ == "__main__":
    main()
