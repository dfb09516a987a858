#!/usr/bin/env python3
"""Structural validator for the jsmm observability outputs.

Usage: obs_check.py <path-to-jsmm-batch>

Runs `jsmm-batch --corpus --stats=json --trace=...` and checks:

  1. every trace line parses as a JSON object with an "ev" member and a
     numeric "t_us" timestamp;
  2. the stream ends with a run-summary record carrying the cache hit
     rate, per-job latency percentiles (p50 <= p90 <= p99 <= max) and
     solver counters;
  3. the deterministic "counters" section is byte-identical across
     --workers=1/2/4 (the per-job JSONL lines must match byte-for-byte
     too).

Exit status 0 when everything holds, 1 with a diagnostic otherwise.
Stdlib only; runs as a ctest (see jsmm_batch_obs_check in CMakeLists.txt)
and in CI.
"""

import json
import subprocess
import sys
import tempfile
import os

KNOWN_EVENTS = {
    "job-start",
    "job-end",
    "tier-select",
    "solver-dispatch",
    "drf-fastpath",
    "static-prune",
    "cache-hit",
    "cache-miss",
    "capacity-reject",
}


def fail(msg):
    print("obs_check: FAIL: " + msg)
    sys.exit(1)


def run_batch(batch, workers, tmpdir):
    out = os.path.join(tmpdir, "out_w%d.jsonl" % workers)
    trace = os.path.join(tmpdir, "trace_w%d.jsonl" % workers)
    cmd = [
        batch,
        "--corpus",
        "--stats=json",
        "--workers=%d" % workers,
        "--trace=" + trace,
        "--output=" + out,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("%r exited %d: %s" % (cmd, proc.returncode, proc.stderr))
    with open(out) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    with open(trace) as f:
        trace_lines = [l for l in f.read().splitlines() if l.strip()]
    return lines, trace_lines


def check_trace(trace_lines, workers):
    if not trace_lines:
        fail("workers=%d: empty trace file" % workers)
    for line in trace_lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            fail("workers=%d: unparseable trace line (%s): %s"
                 % (workers, e, line))
        if not isinstance(obj, dict):
            fail("workers=%d: trace line is not an object: %s"
                 % (workers, line))
        if "ev" not in obj:
            fail("workers=%d: trace line without 'ev': %s" % (workers, line))
        if obj["ev"] not in KNOWN_EVENTS:
            fail("workers=%d: unknown trace event %r" % (workers, obj["ev"]))
        if not isinstance(obj.get("t_us"), (int, float)):
            fail("workers=%d: trace line without numeric 't_us': %s"
                 % (workers, line))


def check_summary(summary):
    cache = summary.get("cache")
    if not isinstance(cache, dict) or "hit_rate" not in cache:
        fail("run-summary without cache.hit_rate")
    latency = summary.get("latency")
    if not isinstance(latency, dict) or "service.job_wall_us" not in latency:
        fail("run-summary without latency['service.job_wall_us']")
    wall = latency["service.job_wall_us"]
    for key in ("p50_us", "p90_us", "p99_us", "max_us"):
        if key not in wall:
            fail("job wall latency without %s" % key)
    quantiles = [wall[k] for k in ("p50_us", "p90_us", "p99_us", "max_us")]
    if quantiles != sorted(quantiles):
        fail("job wall quantiles not ordered p50 <= p90 <= p99 <= max: %r"
             % (wall,))
    counters = summary.get("counters")
    if not isinstance(counters, dict) or "solver.queries" not in counters:
        fail("run-summary counters without solver.queries")
    jobs = summary.get("jobs")
    if not isinstance(jobs, dict) or jobs.get("failed") != 0:
        fail("run-summary reports failed jobs: %r" % (jobs,))


def main():
    if len(sys.argv) != 2:
        print("usage: obs_check.py <path-to-jsmm-batch>")
        return 2
    batch = sys.argv[1]
    per_worker = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for workers in (1, 2, 4):
            lines, trace_lines = run_batch(batch, workers, tmpdir)
            check_trace(trace_lines, workers)
            summaries = [json.loads(l) for l in lines
                         if '"record":"run-summary"' in l]
            if len(summaries) != 1:
                fail("workers=%d: expected exactly one run-summary, got %d"
                     % (workers, len(summaries)))
            check_summary(summaries[0])
            job_lines = [l for l in lines
                         if '"record":"run-summary"' not in l]
            per_worker[workers] = {
                "counters": json.dumps(summaries[0]["counters"],
                                       sort_keys=True),
                "jobs": "\n".join(job_lines),
            }
    base = per_worker[1]
    for workers in (2, 4):
        if per_worker[workers]["counters"] != base["counters"]:
            fail("deterministic counters differ between workers=1 and "
                 "workers=%d:\n  %s\n  %s"
                 % (workers, base["counters"],
                    per_worker[workers]["counters"]))
        if per_worker[workers]["jobs"] != base["jobs"]:
            fail("per-job JSONL differs between workers=1 and workers=%d"
                 % workers)
    print("obs_check: OK (trace parsed, run-summary shape valid, counters "
          "byte-identical across workers 1/2/4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
