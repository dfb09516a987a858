#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload campaign|ring|wide|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark (perfbench/CMakeLists.txt,
which compiles the library from ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload in its own process
and reads that process's peak memory with wait4(2). The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are the ones BENCHMARK.json declares. Exits non-zero
without a result line when the sources, the build or the run fail.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "ring", "wide", "sweep")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def build():
    """Configures once and builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "LitmusService.h")):
        fail("the jsmm sources (src/) are not in this checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "jsmm-perfbench")


def run_workload(binary, args):
    """Runs one workload; returns (last stdout line, peak RSS in MiB)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(HERE, "golden")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        # wait4 on this one child: its own peak RSS, not the build's.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail("workload exited with status %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    # ru_maxrss is in KiB on Linux.
    return lines[-1], usage.ru_maxrss / 1024.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    end_to_end, per_layer = declared_metrics()
    binary = build()
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    line, peak_rss_mb = run_workload(binary, args)
    try:
        raw = json.loads(line)
    except ValueError:
        fail("unparseable result line: " + line)

    measured = dict(raw["metrics"])
    measured["peak_rss_mb"] = peak_rss_mb
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("workload did not report metric " + m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}

    attempted, failed = raw["attempted"], raw["failed"]
    info = dict(raw.get("info", {}))
    info["failed_ratio"] = failed / attempted if attempted else 1.0
    for key in sorted(info):
        print("# %s: %s" % (key, json.dumps(info[key])))
    print(json.dumps({"correct": bool(raw["correct"]) and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
