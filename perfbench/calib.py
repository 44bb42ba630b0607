"""Host-speed calibration for the in-process timings.

The benchmark's host is a VM whose speed drifts by up to about 1.7x over
minutes (README.md, "Steadiness and bounds").  The job times of the
in-process workloads and every set-up time are therefore scaled by the
speed of the host at the time they were taken, measured by a fixed probe
that runs no dyngame code:

    reported = wall * REFERENCE_MS / (median probe time nearby)

that is, the wall time the same work would have taken on a host where one
probe takes ``REFERENCE_MS``.  A change to dyngame moves the wall time and
not the probe, so it moves the reported figure by the same share.

The probe mixes what a dyngame job does: small dense products, LU
factorisations and solves through scipy, an inverse through numpy, and a
plain Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

REFERENCE_MS = 10.0  # about one probe on the 2-vCPU VM in its fast phase
WINDOW = 11          # probe samples in the median around one job

_A = np.eye(6) + np.full((6, 6), 0.05) + np.diag(np.arange(6) * 0.1)
_B = np.arange(36, dtype=float).reshape(6, 6) / 36.0


def probe_ms() -> float:
    """Wall time of one probe run, in ms."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(180):
        m = _A @ _B + _B.T @ _A
        lu = scipy.linalg.lu_factor(_A, check_finite=False)
        x = scipy.linalg.lu_solve(lu, m, check_finite=False)
        acc += float(np.linalg.inv(_A + x * 1e-3)[0, 0])
    k = 0
    for i in range(12000):
        k += (i * i) % 7
    t1 = time.perf_counter()
    if not (acc > 0 and k > 0):
        raise RuntimeError("host-speed probe went wrong")
    return (t1 - t0) * 1e3


def burst_ms(n: int = WINDOW) -> float:
    """Median of ``n`` back-to-back probe runs, in ms."""
    return statistics.median(probe_ms() for _ in range(n))


def scale(times_ms, probe_samples_ms, window: int = WINDOW) -> list[float]:
    """Scale each time by the median of the ``window`` probe samples
    centred on it; ``probe_samples_ms[i]`` was taken just before job i."""
    n = len(probe_samples_ms)
    if len(times_ms) != n:
        raise ValueError("one probe sample per job is required")
    half = window // 2
    out = []
    for i, t in enumerate(times_ms):
        lo = max(0, min(i - half, n - window))
        out.append(t * REFERENCE_MS / statistics.median(probe_samples_ms[lo:lo + window]))
    return out
