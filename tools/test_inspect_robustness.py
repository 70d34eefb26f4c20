#!/usr/bin/env python3
"""Robustness test for zcomp_inspect: malformed input must produce a
clean diagnostic and a non-zero exit, never a crash/signal, and valid
garbage data must still be analyzed.

Usage: test_inspect_robustness.py <path-to-zcomp_inspect>
"""

import json
import os
import random
import subprocess
import sys
import tempfile

failures = []


def run(args, **kw):
    return subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60, **kw)


def check(name, proc, want_exit_zero, want_stderr=None):
    if proc.returncode < 0:
        failures.append("%s: killed by signal %d" %
                        (name, -proc.returncode))
        return
    ok = (proc.returncode == 0) == want_exit_zero
    if not ok:
        failures.append("%s: exit %d (wanted %s)" %
                        (name, proc.returncode,
                         "0" if want_exit_zero else "non-zero"))
        return
    if not want_exit_zero and not proc.stderr.strip():
        failures.append("%s: non-zero exit with no diagnostic" % name)
        return
    if want_stderr and want_stderr not in proc.stderr.decode(
            "utf-8", "replace"):
        failures.append("%s: stderr %r lacks %r" %
                        (name, proc.stderr[:200], want_stderr))
        return
    print("ok: %s" % name)


def main():
    if len(sys.argv) != 2:
        print("usage: %s <zcomp_inspect binary>" % sys.argv[0])
        return 2
    tool = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        empty = os.path.join(tmp, "empty.bin")
        open(empty, "wb").close()
        tiny = os.path.join(tmp, "tiny.bin")
        with open(tiny, "wb") as f:
            f.write(b"\x37" * 63)
        rng = random.Random(0x5EED)
        garbage = os.path.join(tmp, "garbage.bin")
        with open(garbage, "wb") as f:
            f.write(bytes(rng.randrange(256) for _ in range(4096)))

        check("no args", run([tool]), False, "usage")
        check("missing file",
              run([tool, os.path.join(tmp, "no.such.file")]), False,
              "cannot open")
        check("empty file", run([tool, empty]), False, "too small")
        check("sub-line file", run([tool, tiny]), False, "too small")

        # Arbitrary bytes >= one cache line are a valid fp32 dump: the
        # tool must analyze them and exit 0.
        check("garbage bytes analyze", run([tool, garbage]), True)
        jp = run([tool, "--json", garbage])
        check("garbage bytes --json", jp, True)
        if jp.returncode == 0:
            try:
                doc = json.loads(jp.stdout)
                assert doc["bytes"] == 4096
                assert "zcomp" in doc and "ratio" in doc["zcomp"]
                print("ok: --json output parses")
            except Exception as e:  # noqa: BLE001
                failures.append("--json output unparseable: %s" % e)

        check("synth valid", run([tool, "--synth", "0.5", "65536"]),
              True)
        check("synth sparsity junk", run([tool, "--synth", "abc"]),
              False, "[0, 1]")
        check("synth sparsity trailing",
              run([tool, "--synth", "0.5x"]), False, "[0, 1]")
        check("synth sparsity out of range",
              run([tool, "--synth", "1.5"]), False, "[0, 1]")
        check("synth bytes junk",
              run([tool, "--synth", "0.5", "12q"]), False, "integer")
        check("synth bytes negative",
              run([tool, "--synth", "0.5", "-64"]), False, "integer")
        check("synth bytes absurd",
              run([tool, "--synth", "0.5", "99999999999999"]), False,
              "integer")

        # --metrics validation, including the sweep-supervisor
        # "worker"/"crash" record kinds (--isolate-cells telemetry).
        def metrics_file(name, lines):
            p = os.path.join(tmp, name)
            with open(p, "w") as f:
                for rec in lines:
                    f.write(json.dumps(rec) + "\n")
            return p

        def rec(kind, **kw):
            base = {"schema": "zcomp-metrics-v1", "kind": kind,
                    "hostMs": 1.0}
            base.update(kw)
            return base

        good = metrics_file("good.jsonl", [
            rec("worker", event="spawn", worker=0, pid=100,
                cell="resnet-32 (training)"),
            rec("worker", event="spawn", worker=1, pid=101,
                cell="resnet-32 (inference)"),
            rec("worker", event="exit", worker=0, pid=100,
                cell="resnet-32 (training)",
                status="signal 11 (SIGSEGV)"),
            rec("crash", worker=0, cell="resnet-32 (training)",
                signal="SIGSEGV", reason="signal"),
            rec("worker", event="exit", worker=1, pid=101,
                cell="resnet-32 (inference)", status="exit 0"),
            rec("progress", done=1, total=2, cached=0, failed=1,
                retried=0, cellsPerSec=0.5, etaSec=2.0),
        ])
        check("metrics worker records",
              run([tool, "--metrics", good]), True)
        jp = run([tool, "--json", "--metrics", good])
        check("metrics worker --json", jp, True)
        if jp.returncode == 0:
            try:
                doc = json.loads(jp.stdout)
                assert doc["workerEvents"] == 4, doc
                assert doc["crashes"] == 1, doc
                print("ok: metrics --json counts workers")
            except Exception as e:  # noqa: BLE001
                failures.append("metrics --json unparseable: %s" % e)

        check("metrics bad worker event",
              run([tool, "--metrics", metrics_file("bad-ev.jsonl", [
                  rec("worker", event="oops", worker=0, pid=1,
                      cell="x")])]),
              False, "unknown worker event")
        # The supervisor runs one worker per cell; a "steal" (a
        # duplicate launch of a running cell) is not a valid event.
        check("metrics steal event rejected",
              run([tool, "--metrics", metrics_file("steal.jsonl", [
                  rec("worker", event="steal", worker=1, pid=2,
                      cell="x", attempt=2)])]),
              False, "unknown worker event 'steal'")
        check("metrics worker missing pid",
              run([tool, "--metrics", metrics_file("bad-pid.jsonl", [
                  rec("worker", event="spawn", worker=0,
                      cell="x")])]),
              False, "field 'pid'")
        check("metrics exit missing status",
              run([tool, "--metrics", metrics_file("bad-st.jsonl", [
                  rec("worker", event="exit", worker=0, pid=1,
                      cell="x")])]),
              False, "field 'status'")
        check("metrics bad crash reason",
              run([tool, "--metrics", metrics_file("bad-why.jsonl", [
                  rec("crash", worker=0, cell="x", signal="SIGKILL",
                      reason="boredom")])]),
              False, "unknown crash reason")
        check("metrics crash missing signal",
              run([tool, "--metrics", metrics_file("bad-sig.jsonl", [
                  rec("crash", worker=0, cell="x",
                      reason="timeout")])]),
              False, "field 'signal'")

    if failures:
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        return 1
    print("zcomp_inspect robustness: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
