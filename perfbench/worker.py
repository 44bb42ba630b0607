"""Benchmark worker: set up one workload, run its jobs, print the results.

Started by run.py, one process per measurement (and one per extra set-up
sample).  Protocol on stdout: the line ``READY`` once set-up is done, then,
unless ``--setup-only``, one JSON line with the results.  Everything else
goes to stderr.

Timing rules:

* set-up is everything before ``READY``: interpreter start, imports, game
  generation, writing game files.  run.py times it from spawn to ``READY``.
* warm-up jobs run after ``READY`` and are excluded from every timing;
  their output is still checked and they count as attempted.
* timed jobs run closed loop, one at a time, in whole rounds (at least
  one), until at least ``--seconds`` have passed.  Only the library work of a job is
  inside its timed region; building its inputs and checking its output
  are not, and a garbage collection runs before each timed region.
* with ``--trace 1`` every job runs twice, untraced then traced, so the
  trace overhead is measured on the same inputs.
* one run of the host-speed probe (calib.py) precedes each timed job,
  outside its timed region.  Unless the workload sets
  ``host_speed_scaled = False``, the reported job times are the wall times
  scaled by the host speed the probe measured around each job.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    tracer = spans.Tracer()
    work_dir = HERE / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer.install(workloads.LAYERS)
        with tracer.root("setup", "setup"):
            wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(wl, args.seconds, tracer if args.trace else None)
    finally:
        tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        result["layers"] = layer_metrics(tracer, result["meta"]["jobs_timed"])
        if args.spans_out:
            tracer.dump(args.spans_out)
    result["meta"]["versions"] = workloads.versions()
    print(json.dumps(result), flush=True)
    return 0


def _attempt(wl, job, fn, failures):
    """Run ``fn(job)`` timed, then check its output; returns (ms, ok)."""
    gc.collect()  # collect the garbage of input building before the clock starts
    t0 = time.perf_counter()
    try:
        out = fn(job)
    except Exception:  # a job that raises is a failed job; keep measuring
        ms = (time.perf_counter() - t0) * 1e3
        failures.append(traceback.format_exc())
        return ms, False
    ms = (time.perf_counter() - t0) * 1e3
    try:
        wl.check(job, out)
    except Exception:  # CheckFailed, or a malformed output the check tripped on
        failures.append(traceback.format_exc())
        return ms, False
    return ms, True


def measure(wl, seconds: float, tracer) -> dict:
    failures: list[str] = []
    attempted = failed = 0

    warmup = wl.warmup()
    for job in warmup:
        attempted += 1
        failed += not _attempt(wl, job, wl.run, failures)[1]

    times, traced_times, probe_ms = [], [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for job in wl.round(r):
            attempted += 1
            probe_ms.append(calib.probe_ms())
            ms, ok = _attempt(wl, job, wl.run, failures)
            times.append(ms)
            failed += not ok
            if tracer is not None:
                job_id = len(traced_times)

                def traced(job, job_id=job_id):
                    with tracer.root("job", job_id):
                        return wl.run_traced(job, tracer)

                attempted += 1
                ms, ok = _attempt(wl, job, traced, failures)
                traced_times.append(ms)
                failed += not ok
        r += 1
    wall = time.perf_counter() - start

    for text in failures[:5]:
        print(text, file=sys.stderr)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if getattr(wl, "rss_of_children", False)
                               else resource.RUSAGE_SELF)
    return {
        "attempted": attempted,
        "failed": failed,
        "times_ms": (calib.scale(times, probe_ms)
                     if getattr(wl, "host_speed_scaled", True) else times),
        "wall_times_ms": times,
        "traced_times_ms": traced_times,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "meta": {"jobs_timed": len(times), "jobs_warmup": len(warmup), "rounds": r,
                 "loop_wall_s": wall, "probe_ms": {
                     "p10": spans.percentile(probe_ms, 10), "p50": spans.percentile(probe_ms, 50),
                     "p90": spans.percentile(probe_ms, 90)}},
    }


def layer_metrics(tracer, jobs: int) -> dict:
    job_spans = [s for s in tracer.spans if s[4] != "setup"]
    setup_spans = [s for s in tracer.spans if s[4] == "setup"]
    names = [n for n in list(workloads.LAYERS) + list(workloads.JOB_LAYERS)
             if n not in workloads.SETUP_LAYERS]
    stats = spans.layer_stats(job_spans, names, per=max(jobs, 1))
    stats.update(spans.layer_stats(setup_spans, workloads.SETUP_LAYERS, per=1))
    roots = spans.self_times(tracer.spans, "job")
    return {"stats": stats, "job_self_ms": [s for _, s in roots],
            "job_total_ms": [t for t, _ in roots]}


if __name__ == "__main__":
    sys.exit(main())
