#!/usr/bin/env python3
"""Repository benchmark runner: builds the driver, runs one workload and
prints its metrics.

    python3 wavbench/run.py --workload <churn-2k|http-mesh|migrate-bulk>
                            --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds wavbench_driver into .bench_build/ (RelWithDebInfo); later runs
only check that it is up to date. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics of a profiled run. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only if every correctness check held. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing but .bench_build/ behind
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import report  # noqa: E402

ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "wavbench_driver"
# What the driver is built from; hashed into the ledger record because a
# benchmark checkout need not be a git repository.
SOURCES = ("src", "bench/harness.cpp", "bench/harness.hpp", BENCH_DIR.name)
# Repetitions stop before --seconds; this only bounds a hang.
RUN_LIMIT_S = 170


def fail(message, code=1):
    print(f"wavbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(prog="wavbench/run.py", allow_abbrev=False,
                                description="Run one workload of the repository benchmark.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)  # unknown flags exit with status 2
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build():
    for rel in ("src/CMakeLists.txt", "bench/harness.cpp"):
        if not (ROOT / rel).is_file():
            fail(f"{rel} not found: run from the root of a full source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    log = sys.stderr  # keep stdout for the report
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       check=True, stdout=log, stderr=log)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "wavbench_driver",
                    "-j", jobs], check=True, stdout=log, stderr=log)


def source_digest():
    h = hashlib.sha256()
    for rel in SOURCES:
        top = ROOT / rel
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for f in files:
            if "__pycache__" in f.parts:
                continue
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def run_driver(workload, seed, variant, traced, timeout):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--variant", str(variant), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"driver printed no result: {e}")


def measure(args):
    """One driver process per repetition, so none inherits another's heap.
    A cycle runs each variant of the workload once, and with --trace 1
    once untraced and once profiled, in that order. Cycles repeat while
    the next one still fits in --seconds; a run holds at least two
    repetitions, so no median of a single-variant workload rests on one
    sample."""
    started = time.monotonic()
    runs, cycle_started, variants = [], started, 1
    while True:
        k = len(runs)
        traced = bool(args.trace) and (k // variants) % 2 == 1
        runs.append(run_driver(args.workload, args.seed, k % variants, traced,
                               max(1.0, RUN_LIMIT_S - (time.monotonic() - started))))
        variants = runs[0]["variants"]
        cycle = variants * (2 if args.trace else 1)
        if len(runs) % cycle:
            continue
        now = time.monotonic()
        last_cycle, cycle_started = now - cycle_started, now
        if len(runs) >= max(2, cycle) and now - started + last_cycle > args.seconds:
            return report.merge(runs)


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def print_rollup(result):
    layers = {name: {"self_ns": 0, "calls": 0, "share": 0.0}
              for name in report.CATEGORY_LAYER.values()}
    layers.update(report.rollup(result["profile"]))
    print("profiler roll-up (self time over sampled event time):")
    print(f"  {'layer':12s} {'share':>8s} {'calls':>10s} {'ns/call':>10s}")
    for name, layer in sorted(layers.items(), key=lambda kv: (-kv[1]["share"], kv[0])):
        per_call = layer["self_ns"] / layer["calls"] if layer["calls"] else 0.0
        print(f"  {name:12s} {layer['share']:8.1%} {layer['calls']:10d} {per_call:10.0f}")
    bucket, share = report.unattributed(result)
    print(f"largest unattributed bucket: {bucket} {share:.1%}")


def main(argv):
    try:
        spec = report.load_spec()
    except OSError as e:
        fail(f"cannot read the benchmark spec: {e}")
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    build()
    result = measure(args)

    ledger = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_rev": git_rev(), "source_digest": source_digest(),
        "build_type": result["build_type"], "compiler": result["compiler"],
        "nproc": len(os.sched_getaffinity(0)),
        "digest": report.digest(result),
    }
    print("ledger " + json.dumps(ledger, sort_keys=True))

    checks = report.checks(result)
    attempted, failed = report.operations(result)
    checks["operations_attempted"] = attempted >= 1
    metrics = {}
    if checks["repetition_ran"]:
        try:
            if args.trace:
                metrics = report.per_layer(result, spec)
            else:
                metrics = report.end_to_end(result, spec)
                # Each end-to-end metric is a time, a size or a share that a
                # working run never reads as 0.
                checks["end_to_end_positive"] = all(m["value"] > 0 for m in metrics.values())
        except report.UnmappedCategory as e:
            checks["categories_mapped"] = False
            print(f"wavbench: {e}", file=sys.stderr)
    correct = all(checks.values())
    if args.trace and correct:
        print_rollup(result)
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"operations attempted {attempted} failed {failed}")
    print_metrics("metrics:", metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
