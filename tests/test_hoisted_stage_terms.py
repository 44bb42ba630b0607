"""The stage terms that read the game alone are formed once per sweep.

The open-loop solvers solve every player's R^ii over all stages in one
stacked call before the backward loop, and every stage system of a sweep
goes to the dense solver as one stack.  The call counts below
pin that layout; the ill-scaled R^ii game pins that the hoisted solve still
fails where the backward sweep would: at the last failing stage.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from dyngame import cli, numerics, verify
from dyngame.errors import SingularSystemError
from dyngame.game import validate
from dyngame.gameio import save_game
from dyngame.solvers import SOLVERS

from conftest import random_game, random_x0

PLAYERS = {"lqr": 1, "feedback-nash": 2, "feedback-stackelberg": 3,
           "openloop-nash": 3, "openloop-stackelberg": 3}
# Stacked dense calls per stage of a sweep, and per sweep outside the stage
# loop (the open-loop R^ii solves, one per player).
PER_STAGE = {"lqr": 1, "feedback-nash": 1, "feedback-stackelberg": 3,
             "openloop-nash": 1, "openloop-stackelberg": 2}
PER_SWEEP = {"lqr": 0, "feedback-nash": 0, "feedback-stackelberg": 0,
             "openloop-nash": 3, "openloop-stackelberg": 3}


@pytest.fixture
def dense_calls(monkeypatch):
    """A Counter of calls into ``numerics.Checks.solve``, one stacked
    solve each, the only checked solve a sweep makes."""
    counts = Counter()
    solve = numerics.Checks.solve

    def counted(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(numerics.Checks, "solve", counted)
    return counts


@pytest.fixture
def checks_run(monkeypatch):
    """A Counter of ``numerics.Checks.check`` runs by recorder: a sweep
    makes one recorder and asks for its test once, after its stage loop
    (a full stack is tested earlier, inside the recorder)."""
    runs = Counter()
    check = numerics.Checks.check

    def counted(self):
        runs[self] += 1
        return check(self)

    monkeypatch.setattr(numerics.Checks, "check", counted)
    return runs


def game_for(solver, T, seed=7):
    n = PLAYERS[solver]
    spec = random_game(seed + T, n_players=n, state_dim=2, control_dims=[1, 2, 1][:n],
                       horizon=T, time_varying=True, targets=solver != "lqr")
    return spec, random_x0(seed, spec)


@pytest.mark.parametrize("T", [1, 5, 12])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_one_lane_solve_makes_one_stacked_call_per_stage_system(solver, T, dense_calls,
                                                               checks_run):
    spec, x0 = game_for(solver, T)
    SOLVERS[solver].solve(spec, x0)
    # open-loop Nash: T + n, was T (n + 1); open-loop Stackelberg: 2T + n,
    # was T (n + 2)
    assert sum(dense_calls.values()) == PER_STAGE[solver] * T + PER_SWEEP[solver]
    # one sweep, its solves tested once, the R^ii solves with the rest
    assert list(checks_run.values()) == [1]


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_time_consistency_solves_at_most_one_sweep(solver, dense_calls, checks_run):
    for T in (6, 18):
        spec, x0 = game_for(solver, T)
        row = SOLVERS[solver]
        sol = row.solve(spec, x0)
        dense_calls.clear()
        checks_run.clear()
        verify.time_consistency(spec, sol, row.pattern)
        if solver == "openloop-stackelberg":
            # one sweep of the whole game, as a solve makes
            assert sum(dense_calls.values()) == PER_STAGE[solver] * T + PER_SWEEP[solver]
            assert list(checks_run.values()) == [1]
        else:
            # the certificates are products alone: no stage system is solved
            assert not +dense_calls and not +checks_run


def ill_scaled_weight_game():
    """A T = 8 time-varying two-player game whose R^11 = diag(1e6, 1e-7) at
    stages 2 and 5: positive definite, so it validates, but its smallest
    pivot is below PIVOT_RTOL times its norm."""
    spec = random_game(3, n_players=2, state_dim=2, control_dims=[1, 2], horizon=8,
                       time_varying=True)
    stages = list(spec.stages)
    for t in (2, 5):
        R = [list(row) for row in stages[t].R]
        R[1][1] = np.diag([1e6, 1e-7])
        stages[t] = replace(stages[t], R=tuple(tuple(row) for row in R))
    return replace(spec, stages=tuple(stages)), random_x0(3, spec)


@pytest.mark.parametrize("solver", ["openloop-nash", "openloop-stackelberg"])
def test_hoisted_weight_solve_names_the_last_failing_stage(solver):
    spec, x0 = ill_scaled_weight_game()
    assert validate(spec).ok
    with pytest.raises(SingularSystemError,
                       match=r"^stage 5 control weight R\^11: matrix is singular") as failed:
        SOLVERS[solver].solve(spec, x0)
    assert failed.value.context == "stage 5 control weight R^11"


def test_cli_solve_on_the_ill_scaled_game_exits_2(tmp_path, capsys):
    spec, _ = ill_scaled_weight_game()
    path = tmp_path / "ill.json"
    save_game(spec, path)
    assert cli.main(["solve", "--game", str(path), "--solver", "openloop-nash",
                     "--x0", "1,1"]) == 2
    assert "stage 5 control weight R^11" in capsys.readouterr().err
