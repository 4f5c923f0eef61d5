#!/usr/bin/env python3
"""Compare two sets of benchmark records, refusing records from different hosts.

    python3 perfbench/compare.py BASE NEW [--cross-host]

BASE and NEW are record files or directories of them, as run.py writes under
<build>/perfbench/records/.  For each (workload, trace, metric) the medians
of both sides are printed with their ratio; an end-to-end metric whose NEW
median is worse than BASE by more than its BENCHMARK.json bound is flagged
REGRESSION and makes the exit status 1.  Records whose host block (nproc,
CPU model) or build block (compiler, build type) differ are never compared
silently: compare.py exits 2 unless --cross-host is given, and then prints
every difference first.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    return records


def identity(record):
    return (record["host"]["nproc"], record["host"]["cpu_model"],
            record["build"]["compiler"], record["build"]["build_type"])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--cross-host", action="store_true")
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no records", file=sys.stderr)
        return 2
    ids = {identity(r) for r in base + new}
    if len(ids) > 1:
        print("compare: records come from different hosts or builds:", file=sys.stderr)
        for i in sorted(ids, key=str):
            print("  nproc=%s cpu=%s compiler=%s build=%s" % i, file=sys.stderr)
        if not args.cross_host:
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def groups(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"] if not r["trace"] else "ledger",
                                name), []).append(m["value"])
        return out

    b, n = groups(base), groups(new)
    status = 0
    for key in sorted(set(b) & set(n)):
        mb, mn = statistics.median(b[key]), statistics.median(n[key])
        rule = rules.get(key[1], {})
        verdict = ""
        if "bound" in rule and mb:
            worse = (mn - mb) / mb if rule["better"] == "lower" else (mb - mn) / mb
            if worse > rule["bound"]:
                verdict = "REGRESSION"
                status = 1
        ratio = mn / mb if mb else float("nan")
        print("%-14s %-38s base=%-12.6g new=%-12.6g ratio=%.3f (n=%d/%d) %s" % (
            key[0], key[1], mb, mn, ratio, len(b[key]), len(n[key]), verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
