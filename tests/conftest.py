"""Shared builders for unit and acceptance tests.

Random games are drawn with bounded spectral radius and well-conditioned
cost weights so that finite-difference noise stays far below the asserted
tolerances.  Cross control weights are generated positive semidefinite,
which keeps every value-matrix recursion inside the PSD cone (and is what
the Stackelberg solvers require of the leader anyway).
"""

import json
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from dyngame import feedback_nash, feedback_stackelberg, game, lqr, openloop_nash, openloop_stackelberg
from dyngame.game import GameSpec, Player, StageData, constant_game

#: The committed golden games and the initial state each is run from.
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_X0 = {"one_player": "0.5,-1", "two_player": "1,-0.5", "three_player": "-0.3,0.8"}


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def psd_matrix(rng, k, shift=0.0):
    H = rng.standard_normal((k, k)) / np.sqrt(k)
    return H @ H.T + shift * np.eye(k)


def random_game(seed, n_players=None, state_dim=None, horizon=None,
                control_dims=None, affine=True, targets=True,
                identity_own_weights=False, zero_follower_inputs=False,
                time_varying=False) -> GameSpec:
    """A bounded random affine-quadratic game (p <= 3, m_i <= 2, T <= 5)."""
    rng = rng_for(seed)
    n = n_players if n_players is not None else int(rng.integers(1, 4))
    p = state_dim if state_dim is not None else int(rng.integers(1, 4))
    T = horizon if horizon is not None else int(rng.integers(1, 6))
    dims = control_dims if control_dims is not None else [
        int(rng.integers(1, 3)) for _ in range(n)]

    def draw_stage():
        A = rng.standard_normal((p, p))
        radius = np.abs(np.linalg.eigvals(A)).max()
        if radius > 1.1:
            A = A * (1.1 / radius)
        B = []
        for i, m in enumerate(dims):
            if zero_follower_inputs and i > 0:
                B.append(np.zeros((p, m)))
            else:
                B.append(rng.standard_normal((p, m)))
        Q = [psd_matrix(rng, p) for _ in range(n)]
        R = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(np.eye(dims[j]) if identity_own_weights
                               else psd_matrix(rng, dims[j], shift=1.0))
                else:
                    row.append(psd_matrix(rng, dims[j], shift=0.0))
            R.append(row)
        s = rng.standard_normal(p) * 0.5 if affine else np.zeros(p)
        if targets:
            xt = [rng.standard_normal(p) * 0.5 for _ in range(n)]
            ut = [[rng.standard_normal(dims[j]) * 0.5 for j in range(n)] for _ in range(n)]
        else:
            xt = [np.zeros(p) for _ in range(n)]
            ut = [[np.zeros(dims[j]) for j in range(n)] for _ in range(n)]
        return StageData(A=A, B=tuple(B), s=s, Q=tuple(Q),
                         R=tuple(tuple(r) for r in R),
                         x_target=tuple(xt),
                         u_target=tuple(tuple(row) for row in ut))

    if time_varying:
        stages = tuple(draw_stage() for _ in range(T))
    else:
        stage = draw_stage()
        stages = tuple(stage for _ in range(T))
    players = tuple(Player(control_dim=m, name=f"P{i + 1}") for i, m in enumerate(dims))
    return GameSpec(horizon=T, state_dim=p, players=players, stages=stages)


def arrays(obj, path=""):
    """Every array an object holds, with its shape and bytes, by its field
    path: two results are bit-identical when these are equal."""
    if isinstance(obj, np.ndarray):
        return {path: (obj.shape, obj.tobytes())}
    if isinstance(obj, (tuple, list)):
        return {k: v for i, item in enumerate(obj) for k, v in arrays(item, f"{path}[{i}]").items()}
    if isinstance(obj, dict):
        return {k: v for key, item in obj.items() for k, v in arrays(item, f"{path}.{key}").items()}
    if is_dataclass(obj) and not isinstance(obj, GameSpec):
        return {k: v for f in fields(obj) for k, v in arrays(getattr(obj, f.name),
                                                             f"{path}.{f.name}").items()}
    return {}


def strict_json(text):
    """Parse JSON, refusing the non-standard constants NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def act(law, t, x) -> np.ndarray:
    """The stage-t control of a law sequence at state x, u = G_t x + g_t."""
    return law.G[t] @ np.asarray(x, dtype=float) + law.g[t]


def random_x0(seed, spec) -> np.ndarray:
    return rng_for(seed ^ 0x5EED).standard_normal(spec.state_dim)


def scalar_unit_two_player(T=1) -> GameSpec:
    """A=B1=B2=Q1=Q2=R11=R22=1, zero cross weights, drift and targets."""
    return constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                         Q=[[[1.0]], [[1.0]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=T)


def scalar_unit_lqr(T=1) -> GameSpec:
    return constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[1.0]]]], T=T)


@pytest.fixture
def announce(capsys):
    """Context manager printing one PASS/FAIL line per acceptance criterion,
    bypassing pytest's capture so the lines always reach the terminal."""
    import contextlib

    @contextlib.contextmanager
    def _announce(number, description):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                status = "PASS" if ok else "FAIL"
                print(f"[criterion {number}] {status} - {description}")

    return _announce


@pytest.fixture
def layer_calls(monkeypatch):
    """A Counter of calls, by name, into ``game.validate``,
    ``StageArrays.of`` and every solver entry point (each solver's solve
    function and its ``sweep``), wherever the library refers to them."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    targets = {"game.validate": game.validate, "lqr.solve_control": lqr.solve_control}
    for mod in (feedback_nash, feedback_stackelberg, openloop_nash, openloop_stackelberg):
        short = mod.__name__.rsplit(".", 1)[1]
        targets[f"{short}.sweep"] = mod.sweep
        targets[f"{short}.solve"] = mod.solve
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "dyngame" or name.startswith("dyngame."))]
    for name, fn in targets.items():
        wrapper = counting(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    monkeypatch.setattr(game.StageArrays, "of",
                        classmethod(counting("StageArrays.of", game.StageArrays.of.__func__)))
    return counts
