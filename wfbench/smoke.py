#!/usr/bin/env python3
"""The benchmark's own smoke self-test.

    python3 wfbench/smoke.py

Runs every workload run.py knows (the gated ones of BENCHMARK.json and the
ungated backfill) at a tiny size, untraced and traced, and asserts that
each run passes its checks and emits every metric BENCHMARK.json names,
with its unit. Then runs each workload once more with a deliberately wrong
expected answer and asserts that the run fails (exit status 1, "correct":
false). Takes about a minute after the first build. Results go to a
scratch file under .bench_build/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

OUT = os.path.join(".bench_build", "wfbench-smoke.jsonl")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", "--out", OUT, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for name in WORKLOADS:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result = run(name, trace)
            label = "%s trace=%d" % (name, trace)
            if code != 0 or result is None or result.get("correct") is not True:
                problems.append("%s: run failed (status %d)" % (label, code))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append("%s: attempted %s failed %s" % (
                    label, result["attempted"], result["failed"]))
            want = {m["name"]: m["unit"] for m in metrics}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics %s, expected %s"
                                % (label, got, want))
            print("ok   %s (%d metrics)" % (label, len(got)))
        code, result = run(name, 0, "--inject-wrong")
        if code != 1 or result is None or result.get("correct") is not False \
                or result.get("failed", 0) < 1:
            problems.append("%s: a wrong expected answer went unnoticed "
                            "(status %d, result %s)" % (name, code, result))
        else:
            print("ok   %s catches a wrong expected answer" % name)
    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
