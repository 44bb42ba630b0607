"""Seeded game generator for the benchmark workloads.

Follows the bounded recipe of the test suite's random games, re-written
here so the benchmark depends on the library's public API only: every
stage's ``A`` is scaled to spectral radius <= 1.1, own control weights are
positive definite (PSD plus identity), state weights and cross control
weights are positive semidefinite.  PSD cross weights keep every value
recursion inside the PSD cone and are what the Stackelberg solvers require
of the leader, so every solver applies to every multi-player game.

Randomness is keyed: ``rng_for(*key)`` feeds the integers of ``key`` to a
``SeedSequence``, so each workload draws its inputs from (seed, stream,
index) without the streams overlapping.
"""

from __future__ import annotations

import numpy as np

from dyngame.game import GameSpec, Player, StageData

SPECTRAL_RADIUS = 1.1


def rng_for(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _psd(rng, k, shift):
    H = rng.standard_normal((k, k)) / np.sqrt(k)
    return H @ H.T + shift * np.eye(k)


def draw_stage(rng, p: int, dims, targets: bool = True) -> StageData:
    n = len(dims)
    A = rng.standard_normal((p, p))
    radius = np.abs(np.linalg.eigvals(A)).max()
    if radius > SPECTRAL_RADIUS:
        A = A * (SPECTRAL_RADIUS / radius)
    B = tuple(rng.standard_normal((p, m)) for m in dims)
    Q = tuple(_psd(rng, p, 0.0) for _ in range(n))
    R = tuple(tuple(_psd(rng, dims[j], 1.0 if i == j else 0.0) for j in range(n))
              for i in range(n))
    s = 0.5 * rng.standard_normal(p)
    if targets:
        xt = tuple(0.5 * rng.standard_normal(p) for _ in range(n))
        ut = tuple(tuple(0.5 * rng.standard_normal(m) for m in dims) for _ in range(n))
    else:
        xt = tuple(np.zeros(p) for _ in range(n))
        ut = tuple(tuple(np.zeros(m) for m in dims) for _ in range(n))
    return StageData(A=A, B=B, s=s, Q=Q, R=R, x_target=xt, u_target=ut)


def random_game(rng, p: int, dims, horizon: int, time_varying: bool,
                targets: bool = True) -> GameSpec:
    """A game with one fresh stage per decision stage (``time_varying``) or
    one StageData object shared by all stages."""
    if time_varying:
        stages = tuple(draw_stage(rng, p, dims, targets) for _ in range(horizon))
    else:
        stage = draw_stage(rng, p, dims, targets)
        stages = (stage,) * horizon
    players = tuple(Player(control_dim=m, name=f"P{i + 1}") for i, m in enumerate(dims))
    return GameSpec(horizon=horizon, state_dim=p, players=players, stages=stages)


def random_x0(rng, p: int) -> np.ndarray:
    return rng.standard_normal(p)
