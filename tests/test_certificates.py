"""The exact stationarity certificates against central differences and
against the feedback cost-to-go recursion.

:func:`dyngame.verify.stationarity` computes every first-order residual
exactly, with one costate pass along the played path for every solver
(open-loop controls as zero gains, feedback laws as they are) and, for the
open-loop Stackelberg leader, one tangent sweep of the followers' game.
Central differences of step h carry a roundoff of about eps*|J|/h, which
on correct solutions of some games exceeds the 1e-6 gate: these tests pin
a family where they did, and check that the two agree wherever that
roundoff is small.  The feedback entries must also agree to roundoff with
the cost-to-go recursion over all states read along the path, the
library's former formulation, whose recursion now serves the STC entry
alone: one verification builds it once, and stationarity never.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dyngame import feedback_nash, openloop_nash, verify
from dyngame.game import AffineLaw, rollout
from dyngame.solvers import FEEDBACK, OPEN_LOOP, SOLVERS, solver_of

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for

ROOT = Path(__file__).resolve().parent.parent
EPS = np.finfo(float).eps
H = 1e-5


def benchmark_generator():
    """The benchmark's game generator, ``perfbench/gen.py``, loaded from its
    file under its own name."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_false_failure_on_the_777_family():
    """40 constant-stage (3, 3, 2, 12) games: central differences at
    h = 1e-5 read up to 6.0e-3 on the feedback Nash solutions of games 16
    and 28 and up to 3.5e-5 on the open-loop Nash solutions of games 2, 6,
    26, 27 and 28, all correct.  The certificates read at most ~1e-10."""
    gen = benchmark_generator()
    for k in range(40):
        rng = gen.rng_for(777, k)
        spec = gen.random_game(rng, 3, (2, 2, 2), 12, time_varying=False)
        x0 = gen.random_x0(rng, 3)
        for sol, pattern in ((feedback_nash.solve(spec), FEEDBACK),
                             (openloop_nash.solve(spec, x0), OPEN_LOOP)):
            res = verify.stationarity(spec, sol, pattern, x0=x0)
            assert max(res.values()) <= verify.STATIONARITY_TOL, (k, pattern, res)
            tc = verify.time_consistency(spec, sol, pattern)
            assert tc.tail_deviation <= (verify.STC_TOL if pattern == FEEDBACK
                                         else verify.WTC_TOL), (k, pattern, tc)


def moved(spec, sol, x0, rng, size=1e-3):
    """``sol`` moved off its equilibrium by ``size``: every law or control
    of every player but a Stackelberg leader, or for a Stackelberg solution
    the leader's, with the followers re-best-responding (feedback: through
    their stage reactions; open loop: re-solved), so that every residual
    is taken where central differences take it."""
    row = solver_of(sol)
    if row.pattern == FEEDBACK:
        laws = [AffineLaw(law.G + size * rng.standard_normal(law.G.shape),
                          law.g + size * rng.standard_normal(law.g.shape)) for law in sol.laws]
        if row.stackelberg:
            laws = verify._leader_played(sol.reactions, laws[0])
        return replace(sol, laws=tuple(laws))
    controls = [u + size * rng.standard_normal(u.shape) for u in sol.trajectory.controls]
    if row.stackelberg:
        followers = openloop_nash.solve(ref.fold_player_controls(spec, 0, controls[0]), x0)
        controls[1:] = followers.trajectory.controls
    return replace(sol, trajectory=rollout(spec, controls, x0))


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_central_differences_agree_where_their_roundoff_is_small(solver):
    """|certificate - central difference| <= 1e-8 for every player whose
    eps*|J_i|/h is below 1e-9, on solutions and on solutions moved by 1e-3;
    the players compared are most of them."""
    row = SOLVERS[solver]
    compared = skipped = 0
    for seed in range(24):
        n = 1 if solver == "lqr" else 2 + seed % 2 if row.stackelberg else 1 + seed % 3
        spec = random_game(7000 + seed, n_players=n, time_varying=seed % 2 == 1,
                           targets=solver != "lqr")
        x0 = random_x0(7000 + seed, spec)
        sol = row.solve(spec, x0)
        for claim in (sol, moved(spec, sol, x0, rng_for(seed))):
            J = (claim.trajectory.total_costs if row.pattern == OPEN_LOOP
                 else rollout(spec, claim.laws, x0).total_costs)
            certified = verify.stationarity(spec, claim, row.pattern, x0=x0)
            fd = ref.batched_stationarity(spec, claim, H, x0)
            for i in range(n):
                if EPS * abs(J[i]) / H >= 1e-9:
                    skipped += 1
                    continue
                compared += 1
                assert abs(certified[i] - fd[i]) <= 1e-8, (seed, i, certified[i], fd[i])
    assert compared >= 4 * skipped and compared >= 24


FEEDBACK_SOLVERS = [name for name, row in SOLVERS.items() if row.pattern == FEEDBACK]


@pytest.mark.parametrize("solver", FEEDBACK_SOLVERS)
def test_feedback_stationarity_agrees_with_the_cost_to_go_recursion(solver):
    """|costate pass - cost-to-go maps along the path| <= 1e-9 max(1, |ref|)
    on solutions and on solutions moved by 1e-3."""
    row = SOLVERS[solver]
    for seed in range(24):
        n = 1 if solver == "lqr" else 2 + seed % 2
        spec = random_game(7100 + seed, n_players=n, time_varying=seed % 2 == 1,
                           targets=solver != "lqr")
        x0 = random_x0(7100 + seed, spec)
        sol = row.solve(spec, x0)
        for claim in (sol, moved(spec, sol, x0, rng_for(seed))):
            certified = verify.stationarity(spec, claim, FEEDBACK, x0=x0)
            expected = ref.feedback_stationarity_by_cost_to_go(spec, claim, x0)
            for i in range(n):
                assert abs(certified[i] - expected[i]) <= 1e-9 * max(1.0, abs(expected[i])), (
                    seed, i, certified[i], expected[i])


@pytest.mark.parametrize("solver", FEEDBACK_SOLVERS)
def test_one_verification_runs_the_cost_to_go_recursion_once(solver, monkeypatch):
    # only STC needs the residuals at every state; stationarity reads the path
    calls = []
    recursion = verify._feedback_residuals
    monkeypatch.setattr(verify, "_feedback_residuals",
                        lambda *a, **k: calls.append(a) or recursion(*a, **k))
    row = SOLVERS[solver]
    spec = random_game(7150, n_players=1 if solver == "lqr" else 2, targets=solver != "lqr")
    x0 = random_x0(7150, spec)
    sol = row.solve(spec, x0)
    verify.stationarity(spec, sol, FEEDBACK, x0=x0)
    assert calls == []
    assert verify.run_verification(spec, sol, FEEDBACK, solver, x0=x0, samples=5).passed
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Accuracy on the benchmark's long paths


def solve_long_game(shape):
    """Bank game 0 of a ``solve-long`` shape, drawn as the benchmark draws
    it: key (7201, shape index, 0), T = 200, time-varying, with targets."""
    gen = benchmark_generator()
    p, dims = {"2x3x2": (3, (2, 2)), "3x10x3": (10, (3, 3, 3))}[shape]
    rng = gen.rng_for(7201, ["2x3x2", "3x10x3"].index(shape), 0)
    spec = gen.random_game(rng, p, dims, 200, time_varying=True, targets=True)
    return spec, gen.random_x0(rng, p)


@pytest.mark.parametrize("shape", ["2x3x2", "3x10x3"])
@pytest.mark.parametrize("solver", ["feedback-nash", "feedback-stackelberg"])
def test_feedback_certificate_on_the_long_bank_paths(solver, shape):
    # The benchmark checks these solutions by their costs alone, to rtol
    # 1e-7; the relative certificate reads 3.6e-16 to 7.5e-15 on them.
    spec, x0 = solve_long_game(shape)
    row = SOLVERS[solver]
    tc = verify.time_consistency(spec, row.solve(spec, x0), row.pattern)
    assert tc.tail_deviation <= verify.STC_TOL


@pytest.mark.xfail(strict=True, reason="the open-loop Nash path of this game reaches |x| of "
                   "about 1e27 by T = 200; the relative tail gradient reads 0.42")
def test_openloop_nash_weak_time_consistency_on_the_long_3x10x3_path():
    spec, x0 = solve_long_game("3x10x3")
    tc = verify.time_consistency(spec, openloop_nash.solve(spec, x0), OPEN_LOOP)
    assert tc.tail_deviation <= verify.WTC_TOL


@pytest.mark.xfail(strict=True, reason="the absolute stationarity of this open-loop Nash "
                   "solution reads 2.5e-4 against 1e-6")
def test_openloop_nash_stationarity_on_the_long_2x3x2_path():
    spec, x0 = solve_long_game("2x3x2")
    res = verify.stationarity(spec, openloop_nash.solve(spec, x0), OPEN_LOOP)
    assert max(res.values()) <= verify.STATIONARITY_TOL


@pytest.mark.parametrize("solver, kkt, bound", [
    ("openloop-nash", ref.openloop_nash_kkt_residuals, 1e-9),
    ("openloop-stackelberg", ref.openloop_stackelberg_kkt_residuals, 1e-8),
])
def test_the_certificate_flags_what_the_kkt_residuals_flag(solver, kkt, bound):
    """On 20 time-varying (p = 2, m = (1, 2, 1), T = 6) games, every
    open-loop solution passes both the 1e-6 stationarity gate and the KKT
    residual bound of acceptance criterion 4b, and every solution moved by
    1e-3 fails both: the certificate the library ships, which reads only the
    game and the controls, sees what the solver-internal self-checks see.
    The smallest moved values read 1.7e-2 (stationarity) and 8.5e-3 (KKT)
    for open-loop Nash, 1.9e-3 and 2.1e-3 for open-loop Stackelberg."""
    row = SOLVERS[solver]
    for seed in range(20):
        spec = random_game(7100 + seed, n_players=3, state_dim=2, horizon=6,
                           control_dims=[1, 2, 1], time_varying=True)
        x0 = random_x0(7100 + seed, spec)
        sol = row.solve(spec, x0)
        for claim, off in ((sol, False), (moved(spec, sol, x0, rng_for(seed)), True)):
            certified = max(verify.stationarity(spec, claim, OPEN_LOOP).values())
            residual = max(kkt(claim).values())
            assert (certified > verify.STATIONARITY_TOL) == off, (seed, off, certified)
            assert (residual > bound) == off, (seed, off, residual)
