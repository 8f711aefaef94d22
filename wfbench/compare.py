#!/usr/bin/env python3
"""Compares two sets of wfbench runs, metric by metric.

    python3 wfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as run.py appends them (one JSON object per
line; mix seeds freely, one file per commit). For every workload present
in both files and every metric of BENCHMARK.json, prints one row: the
median and quartiles of each side, the change of the median, the bound,
and a verdict.

  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, and the runs do not separate
              (not every NEW run is better than every BASE run)
  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better by more than the bound
  same        within the bound

Both sides must have sent wfqd the same inputs: for every seed run on
both sides, the inputs hash each run records (the fixture's records and
the seeded request bodies) must agree. A workload whose inputs differ is
refused: its rows read "inputs differ" and the exit status is 2. Seeds
run on one side only cannot be checked, which is said. A store whose
bytes differ for the same inputs (a changed store format) is noted.

End-to-end rows come from untraced runs and carry the workload's own
metric name (e.g. monitor/ingest_p50_ms for main_p50_ms); per-layer rows
come from traced runs and have no bound. Runs whose result was not
correct are skipped and counted. Exit status 2 when inputs differ, else 1
when any end-to-end metric is "worse", else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path):
    runs, skipped = [], 0
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["result"].get("correct") is not True:
                skipped += 1
                continue
            runs.append(rec)
    return runs, skipped


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, workload, trace, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r["provenance"]["trace"] == trace
            and metric in r["result"]["metrics"]]


def alias(runs, workload, metric):
    for r in runs:
        if r["workload"] != workload:
            continue
        for name, m in r.get("named", {}).items():
            if m.get("gate") == metric:
                return "%s/%s" % (workload, name)
    return "%s/%s" % (workload, metric)


def inputs_of(runs, workload):
    """(seed, seconds, tiny) -> the set of (inputs hash, store hash)."""
    out = {}
    for r in runs:
        if r["workload"] != workload:
            continue
        p = r["provenance"]
        facts = p.get("facts", {})
        store = facts.get("fixture", {}).get("hash")
        out.setdefault((p["seed"], p["seconds"], p["tiny"]), set()).add(
            (facts.get("inputs_hash"), store))
    return out


def check_inputs(base, new, workload):
    """Problems with the two sides' inputs, and notes that do not refuse."""
    b, n = inputs_of(base, workload), inputs_of(new, workload)
    common = sorted(set(b) & set(n))
    problems, notes = [], []
    if not b or not n:
        return problems, notes
    if not common:
        notes.append("%s: no seed run on both sides, inputs not checked"
                     % workload)
    for key in common:
        inputs = {h for h, _ in b[key] | n[key]}
        stores = {s for _, s in b[key] | n[key]}
        if len(inputs) != 1 or None in inputs:
            problems.append("%s seed %d: inputs differ (%s)"
                            % (workload, key[0], ", ".join(map(str, inputs))))
        elif len(stores) != 1:
            notes.append("%s seed %d: same inputs, store bytes differ"
                         % (workload, key[0]))
    return problems, notes


def verdict(base, new, better, bound):
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = -1.0 if better == "lower" else 1.0
    change = sign * (nmed - bmed) / bmed if bmed else 0.0
    if bound is None:
        return change, "-"
    spread = 0.0
    for vals in (base, new):
        q1, med, q3 = quartiles(vals)
        if med:
            spread = max(spread, (q3 - q1) / abs(med))
    separated = (min(new) > max(base) if better == "higher"
                 else max(new) < min(base))
    if spread > bound and not separated:
        return change, "unresolved"
    if change < -bound:
        return change, "worse"
    if change > bound:
        return change, "better"
    return change, "same"


def fmt(vals):
    q1, med, q3 = quartiles(vals)
    return "%.4g [%.4g, %.4g] n=%d" % (med, q1, q3, len(vals))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = load_spec()
    base, bskip = load_runs(sys.argv[1])
    new, nskip = load_runs(sys.argv[2])
    if bskip or nskip:
        print("skipped incorrect runs: base %d, new %d" % (bskip, nskip))
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    worse = False
    refused = False
    for workload in workloads:
        problems, notes = check_inputs(base, new, workload)
        for line in problems + notes:
            print(line)
        refused |= bool(problems)
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in metrics:
                b = values_of(base, workload, trace, m["name"])
                n = values_of(new, workload, trace, m["name"])
                if not b or not n:
                    continue
                bound = m.get("bound")
                change, v = verdict(b, n, m["better"], bound)
                if problems:
                    v = "inputs differ"
                worse |= v == "worse" and trace == 0
                name = (alias(base, workload, m["name"]) if trace == 0
                        else "%s/%s" % (workload, m["name"]))
                rows.append((name, m["unit"], fmt(b), fmt(n),
                             "%+.1f%%" % (100 * change),
                             "%.0f%%" % (100 * bound) if bound else "-", v))
    header = ("metric", "unit", "base median [q1, q3]", "new median [q1, q3]",
              "change", "bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print("(change is signed so that + is an improvement)")
    sys.exit(2 if refused else 1 if worse else 0)


if __name__ == "__main__":
    main()
