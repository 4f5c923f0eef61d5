#!/usr/bin/env python3
"""Smoke-sized self-test of the netemu benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Runs every workload briefly untraced and the layer ledger once, through
perfbench/run.py, and checks that:
  - the result object is the last stdout line, with exactly the keys
    correct / attempted / failed / metrics;
  - every metric BENCHMARK.json declares is present with its unit and is a
    finite number, and the record also carries each workload's own
    end-to-end metrics (sim_msgs_per_s, hit_tail_ms, miss_p50_ms, ...);
  - error_rate is 0 and every answer check passed (estimate and scatter
    digests, request results against in-process plan_query, request_hot
    responses are all cache hits and the daemon counts a hit ratio of 1);
  - setup_s is the median of several recorded set-up rounds;
  - the record carries the host block and the seed.
Exits 0 when everything holds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics recorded beside BENCHMARK.json's bounded set, by
# workload; every workload also records tail_ms.
EXTRA = {
    "estimate_cold": {"sim_msgs_per_s": "1/s"},
    "request_hot": {},
    "request_mixed": {"hit_tail_ms": "ms", "miss_p50_ms": "ms",
                      "miss_tail_ms": "ms", "slo_rate_per_s": "1/s"},
    "fleet_scatter": {},
}
for extra in EXTRA.values():
    extra["tail_ms"] = "ms"
SEED = 7


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, done.returncode, done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_line = [l for l in lines if " record=" in l][0]
    with open(os.path.join(ROOT, record_line.split(" record=")[1])) as f:
        record = json.load(f)
    return result, record


def check_metrics(what, got, declared):
    for name, unit in declared.items():
        m = got.get(name)
        assert m is not None, "%s: metric %s missing" % (what, name)
        assert m["unit"] == unit, "%s: %s unit %s != %s" % (
            what, name, m["unit"], unit)
        assert isinstance(m["value"], (int, float)) and math.isfinite(
            m["value"]), "%s: %s = %r" % (what, name, m["value"])


def check(workload, trace, result, record, declared):
    what = "%s trace=%d" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert set(result["metrics"]) == set(declared), what
    check_metrics(what, result["metrics"], declared)
    assert result["correct"] is True, what + ": an answer check failed"
    assert result["attempted"] >= 1, what
    assert result["failed"] == 0, what + ": error_rate %d/%d" % (
        result["failed"], result["attempted"])
    assert record["wrong_answers"] == 0, what
    for key in ("nproc", "cpu_model"):
        assert key in record["host"], what + ": host block lacks " + key
    for key in ("compiler", "build_type"):
        assert record["build"].get(key), what + ": build block lacks " + key
    assert record["seed"] == SEED, what
    if not trace:
        check_metrics(what, record["metrics"], EXTRA[workload])
        rounds = record["details"]["setup_rounds_s"]
        assert len(rounds) >= 2, what + ": %d set-up rounds" % len(rounds)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} <= set(EXTRA)
    for workload in EXTRA:
        result, record = run(workload, args.seconds, 0)
        check(workload, 0, result, record, e2e)
        print("ok  %-14s trace=0  attempted=%d" % (workload, result["attempted"]))
    result, record = run("estimate_cold", 2 * args.seconds, 1)
    check("estimate_cold", 1, result, record, layers)
    hit_ratio = result["metrics"]["service.cache_hit_ratio"]["value"]
    assert hit_ratio == 1.0, "request_hot cache_hit_ratio %r != 1" % hit_ratio
    print("ok  layer ledger    trace=1  attempted=%d" % result["attempted"])
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print("selftest FAILED: %s" % e, file=sys.stderr)
        sys.exit(1)
