#!/usr/bin/env python3
"""Summarise or compare benchmark ledgers written by run.py --ledger.

    python3 perfbench/compare.py BASE.jsonl            # spread of one ledger
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

One ledger: for each workload and metric, the median over its records and
the spread, the distance between the first and third quartile as a share of
the median. End-to-end metrics whose spread exceeds their bound in
BENCHMARK.json are marked "NOISY".

Two ledgers: the median of NEW against the median of BASE for each workload
and end-to-end metric, with the change in the metric's worse direction as a
share of BASE. A change worse than the bound is marked "REGRESSION".
Records are compared only when every record has the same host fingerprint
(nproc, CPU model, compiler, build type); otherwise the script refuses and
exits 2, since a different host is not a code change.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
FINGERPRINT = ("nproc", "cpu_model", "compiler", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint(record):
    return tuple(record["provenance"][k] for k in FINGERPRINT)


def by_metric(records):
    """{(workload, metric): [values]} over valid, correct records."""
    out = defaultdict(list)
    for r in records:
        if r["valid"] and r["correct"] and r["failed"] == 0:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(records):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"{'workload':14} {'metric':38} {'n':>3} {'median':>12} {'spread':>8}")
    for (workload, name), values in sorted(by_metric(records).items()):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        flag = "NOISY" if name in bounds and spread > bounds[name] else ""
        print(f"{workload:14} {name:38} {len(values):3d} {med:12.5g} "
              f"{spread:8.3f} {flag}")


def compare(base, new):
    prints = {fingerprint(r) for r in base + new}
    if len(prints) != 1:
        print("refusing to compare records from different hosts:",
              file=sys.stderr)
        for p in sorted(prints):
            print("  ", dict(zip(FINGERPRINT, p)), file=sys.stderr)
        return 2
    a, b = by_metric(base), by_metric(new)
    regressions = 0
    print(f"{'workload':14} {'metric':24} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for m in SPEC["end_to_end"]:
        for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
            va, vb = a.get((workload, m["name"])), b.get((workload, m["name"]))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "REGRESSION" if worse > m["bound"] else ""
            regressions += bool(flag)
            print(f"{workload:14} {m['name']:24} {ma:12.5g} {mb:12.5g} "
                  f"{worse:9.3f} {m['bound']:6.2f} {flag}")
    return 1 if regressions else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2:
        summarise(load(argv[1]))
        return 0
    return compare(load(argv[1]), load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
