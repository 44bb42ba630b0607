"""dyngame benchmark: one command, three workloads, every metric with its unit.

    python3 perfbench/run.py --workload solve-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (BENCHMARK.json lists both).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.  Spans and metadata of each run are also written under
``perfbench/results/``.  See perfbench/README.md for the workloads, the
metrics and which layer moves which metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from spans import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-long", "verify-family", "cli-cold")
SETUP_SAMPLES = 7  # set-ups per run: 3 before the measuring worker, its own, 3 after
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170  # every worker is killed this long after the start


class BenchError(Exception):
    pass


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in BLAS_CAPS:
        env[name] = "1"
    env.pop("DYNGAME_LOG", None)
    return env


def compile_bytecode() -> None:
    """Write the bytecode caches before any timed set-up."""
    for path in (ROOT / "src" / "dyngame", HERE):
        if not compileall.compile_dir(str(path), quiet=1, maxlevels=0):
            raise BenchError(f"cannot compile {path}")


def run_worker(args, env, setup_only: bool, deadline: float, spans_out=None):
    """Start a worker; returns (set-up wall seconds, host-speed probe ms
    just before the start, result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    probe_ms = calib.burst_ms()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            raise BenchError(f"worker did not finish set-up: {ready!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        code = proc.returncode
        lines = rest.splitlines()
        result = json.loads(lines[-1]) if lines and not setup_only else None
        if code != 0 or (not setup_only and result is None):
            raise BenchError(f"worker exited {code}")
        return setup_s, probe_ms, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout and not proc.stdout.closed:
            proc.stdout.close()


def end_to_end(result, setup_samples) -> dict:
    """``setup_samples`` holds (wall seconds, probe ms) pairs; set-up times
    are scaled to the probe's reference speed (calib.py)."""
    times = result["times_ms"]
    setup = [s * calib.REFERENCE_MS / k for s, k in setup_samples]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_ms.p50": (percentile(times, 50), "ms"),
        "job_ms.p90": (percentile(times, 90), "ms"),
        "jobs_per_s": (len(times) / (sum(times) / 1e3), "1/s"),
        "success_rate": (1.0 - result["failed"] / result["attempted"], "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def per_layer(result) -> dict:
    layers = result["layers"]
    out = {}
    for name, st in layers["stats"].items():
        per = "setup" if name == "gameio.save_game" else "job"
        out[f"{name}.calls"] = (st["calls"], f"count/{per}")
        out[f"{name}.busy_ms"] = (st["busy_ms"], f"ms/{per}")
        out[f"{name}.p50_ms"] = (st["p50_ms"], "ms")
    self_ms, total_ms = layers["job_self_ms"], layers["job_total_ms"]
    out["job.self_ms"] = (statistics.median(self_ms), "ms")
    out["job.self_frac"] = (sum(self_ms) / sum(total_ms), "fraction")
    # Each job ran untraced and then traced on the same inputs; the median of
    # the paired ratios is steadier than a ratio of two medians, which can
    # jump between neighbouring jobs of very different size.
    out["trace_overhead_frac"] = (
        statistics.median(t / u for t, u in zip(result["traced_times_ms"],
                                                result["wall_times_ms"]))
        - 1.0, "fraction")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src" / "dyngame" / "__init__.py").is_file():
        print(f"error: no dyngame sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        compile_bytecode()
        # The set-up-only workers are split around the measuring one, so the
        # median set-up spans the whole run rather than its first seconds.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setup_samples = [run_worker(args, env, True, deadline)[:2] for _ in range(extra // 2)]
        spans_out = results_dir / f"{stem}-spans.json.gz" if args.trace else None
        *sample, result = run_worker(args, env, False, deadline, spans_out)
        setup_samples.append(tuple(sample))
        setup_samples += [run_worker(args, env, True, deadline)[:2]
                          for _ in range(extra - extra // 2)]
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    meta = dict(result["meta"], workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, git_rev=git_rev(),
                nproc=os.cpu_count(), machine=platform.machine(),
                blas_caps={k: env[k] for k in BLAS_CAPS},
                setup_samples_s=[s for s, _ in setup_samples],
                setup_probe_ms=[k for _, k in setup_samples],
                probe_reference_ms=calib.REFERENCE_MS, probe_window=calib.WINDOW,
                wall_job_ms={"p50": percentile(result["wall_times_ms"], 50),
                             "p90": percentile(result["wall_times_ms"], 90)},
                samples={"job_ms": len(result["times_ms"])},
                excluded_from_timing="bytecode compile before set-up; "
                                     "warm-up jobs after set-up; host-speed probes")
    (results_dir / f"{stem}-meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
