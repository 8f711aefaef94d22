#!/usr/bin/env python3
"""One run of one workload of the wfqd benchmark.

    python3 wfbench/run.py --workload adhoc|monitor|backfill --seed N \\
        --seconds S --trace 0|1 [--out FILE] [--tiny] [--inject-wrong]

Run from the root of the repository. The first run configures a Release
tree of wfbench/ (the repository's libraries, wfqd and the load generator)
under .bench_build/ and builds it; later runs rebuild only what changed.
The load generator then builds a seeded store fixture, starts wfqd as a
separate process, drives it over loopback, checks the answers, and prints
a report. This script adds the units BENCHMARK.json gives each metric and
prints the JSON result as the last line. Each run is also appended, with
its provenance, to --out (default .bench_build/wfbench-results.jsonl) for
compare.py.

Exit status: 0 when every check passed, 1 when an answer was wrong (the
result line says "correct": false), 2 when the run could not be made (no
result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "wfbench")
WORK_DIR = os.path.join(".bench_build", "wfbench-work")
DEFAULT_OUT = os.path.join(".bench_build", "wfbench-results.jsonl")
RUN_TIMEOUT_S = 170
# Sources whose digest identifies the code under test when the checkout is
# not a git repository.
SOURCE_DIRS = ["src", "examples", "wfbench"]


WORKLOADS = ["adhoc", "monitor", "backfill"]  # backfill is not gated


def fail(msg):
    print("wfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_checkout():
    for path in ["BENCHMARK.json", "CMakeLists.txt", "src/CMakeLists.txt",
                 "examples/wfqd.cpp", "wfbench/CMakeLists.txt"]:
        if not os.path.isfile(path):
            fail("run from the repository root: %s is missing" % path)


def build():
    """Configures (once) and builds the Release tree; returns its paths."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", "wfbench", "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "wfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return (os.path.join(BUILD_DIR, "wfbench"),
            os.path.join(BUILD_DIR, "wflog", "examples", "wfqd"))


def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    ident = cmake_cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([ident, "--version"], capture_output=True,
                             text=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, IndexError):
        return ident


def source_digest():
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in SOURCE_DIRS:
        for root, _, names in os.walk(top):
            files.extend(os.path.join(root, n) for n in names)
    for path in sorted(files):
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_ticks():
    """(steal, total) CPU ticks of the whole VM from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_pct(before, after):
    """Share of the VM's CPU time the hypervisor gave to others meanwhile."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def machine_line(lines, tag):
    """The JSON of the report line "<tag> {...}"."""
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    fail("load generator printed no %s line" % tag)


def result_of(generated, spec, trace):
    """The result line: the generator's values under BENCHMARK.json's
    metric names and units. Every metric must be measured, and no other."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    values = generated["values"]
    names = [m["name"] for m in metrics]
    missing = [n for n in names
               if not isinstance(values.get(n), (int, float))]
    extra = sorted(set(values) - set(names))
    if missing or extra:
        fail("metrics not measured: %s; not in BENCHMARK.json: %s"
             % (missing, extra))
    return {
        "correct": generated["correct"] is True,
        "attempted": max(int(generated["attempted"]), 1),
        "failed": int(generated["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default=DEFAULT_OUT)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size (seconds of work become a handful)")
    p.add_argument("--inject-wrong", action="store_true",
                   help="self-test: corrupt one expected answer")
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    check_checkout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    generator, wfqd = build()
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    # Write back what earlier runs left dirty (stores, deleted fixtures) so
    # it does not land inside this run's measurement.
    os.sync()
    cmd = [generator, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--wfqd", wfqd, "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    ticks = cpu_ticks()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        ticks = (ticks, cpu_ticks())
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("load generator exited with status %d" % proc.returncode)
    try:
        generated = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail("load generator printed no result line")
    report = lines[:-1]
    facts = machine_line(report, "facts")
    named = machine_line(report, "named")
    result = result_of(generated, spec, args.trace)
    provenance = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "compiler": compiler(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "facts": facts,
        # Noise on a shared host: CPU time stolen by the hypervisor during
        # the generator's run, over all vCPUs.
        "host_steal_pct": steal_pct(*ticks),
    }
    record = {"workload": args.workload, "provenance": provenance,
              "named": named, "result": result}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    for line in report:
        print(line)
    for name, m in result["metrics"].items():
        print("  %s %s = %r %s" % ("layer" if args.trace else "gate", name,
                                   m["value"], m["unit"]))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
