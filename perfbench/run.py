#!/usr/bin/env python3
"""netemu benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a netemu checkout.  Builds perfbench/ (the netemu
library sources, netemu_serve and the perfbench driver; Release) under
$CARGO_TARGET_DIR or .bench_build/, runs one workload, checks its answers,
writes a record carrying the host block to <build>/perfbench/records/, prints
every metric by name with its unit, and prints the result object as the last
stdout line.  --trace 0 reports the end-to-end metrics of BENCHMARK.json for
the named workload; --trace 1 runs the layer ledger of all four workloads and
reports the per-layer metrics.  --workload all runs every workload in turn
(human-readable output only).  Exits non-zero, printing no result, when the
build, a run or a check of the output fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["estimate_cold", "request_hot", "request_mixed", "fleet_scatter"]
# A run measures for --seconds (a traced run for about twice that, across
# its passes) and sets up around it; past this it counts as hung.
RUN_TIMEOUT_MARGIN_S = 60
RUN_TIMEOUT_PER_S = 3
BUILD_TIMEOUT_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then an incremental build of the two binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no netemu sources at " + os.path.join(ROOT, "src"))
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")) and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for step in (cmd, ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out


def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": os.uname().release,
    }


def run_binary(out, workload, seed, seconds, trace):
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", os.path.join(out, "netemu_serve"),
           "--work-dir", work,
           "--digests", os.path.join(HERE, "digests.json")]
    timeout = RUN_TIMEOUT_MARGIN_S + RUN_TIMEOUT_PER_S * seconds
    # Own process group: a timeout takes the spawned daemons down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("%s timed out after %g s" % (workload, timeout))
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, proc.returncode))
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no record" % workload)
    return json.loads(lines[-1])


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def save(out, record):
    records = os.path.join(out, "records")
    os.makedirs(records, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (record["workload"], record["seed"],
                                          record["trace"], time.time_ns())
    with open(os.path.join(records, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return os.path.join(records, name)


def report(record, path):
    host = record["host"]
    print("host: nproc=%d cpu=%s compiler=%s build=%s" % (
        host["nproc"], host["cpu_model"], record["build"]["compiler"],
        record["build"]["build_type"]))
    print("workload=%s seed=%d trace=%d seconds=%g record=%s" % (
        record["workload"], record["seed"], record["trace"],
        record["seconds"], os.path.relpath(path, ROOT)))
    attempted, failed = record["attempted"], record["failed"]
    print("  %-40s %.6g" % ("error_rate", failed / max(1, attempted)))
    for name in sorted(record["metrics"]):
        m = record["metrics"][name]
        extra = ""
        d = record["details"].get(name)
        if isinstance(d, dict) and "tail_percentile" in d:
            extra = "  (p%.6g of %d samples%s)" % (
                d["tail_percentile"], d["samples"],
                ", median over blocks of %d" % d["tail_block"]
                if d["tail_block"] else "")
        print("  %-40s %.6g %s%s" % (name, m["value"], m["unit"], extra))


def result_object(record, metrics):
    out = {}
    for m in metrics:
        got = record["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError("metric %s missing from the record" % m["name"])
        if got["unit"] != m["unit"]:
            raise RuntimeError("metric %s has unit %s, declared %s" % (
                m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]) and record["failed"] == 0,
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        metrics = declared(args.trace)
        out = build()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        if args.trace and args.workload == "all":
            names = names[:1]  # the ledger already covers every workload
        all_correct = True
        for name in names:
            record = run_binary(out, name, args.seed, args.seconds, args.trace)
            record["host"] = host_block()
            report(record, save(out, record))
            result = result_object(record, metrics)
            all_correct = all_correct and result["correct"]
        if args.workload != "all":
            print(json.dumps(result))
            return 0
        return 0 if all_correct else 1
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
