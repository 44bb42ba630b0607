"""The stage terms that read the game alone are formed once per sweep.

The open-loop solvers solve every player's R^ii over all stages in one
stacked call before the backward loop, and every stage system of all lanes
of a sweep goes to the dense solver as one stack.  The call counts below
pin that layout; the ill-scaled R^ii game pins that the hoisted solve still
fails where the backward sweep would: at the last failing stage.
"""

import sys
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
PER_STAGE = {"lqr": 1, "feedback-nash": 1, "feedback-stackelberg": 2,
             "openloop-nash": 1, "openloop-stackelberg": 2}
PER_SWEEP = {"lqr": 0, "feedback-nash": 0, "feedback-stackelberg": 0,
             "openloop-nash": 3, "openloop-stackelberg": 3}


@pytest.fixture
def dense_calls(monkeypatch):
    """A Counter of calls into ``numerics.solve_dense`` and
    ``numerics.factor``, one stacked factorisation each, wherever the
    library refers to them."""
    counts = Counter()
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and name.startswith("dyngame.")]
    for name in ("solve_dense", "factor"):
        fn = getattr(numerics, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def game_for(solver, T, seed=7):
    n = PLAYERS[solver]
    spec = random_game(seed + T, n_players=n, state_dim=2, control_dims=[1, 2, 1][:n],
                       horizon=T, time_varying=True, targets=solver != "lqr")
    return spec, random_x0(seed, spec)


@pytest.mark.parametrize("T", [1, 5, 12])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_one_lane_solve_makes_one_stacked_call_per_stage_system(solver, T, dense_calls):
    spec, x0 = game_for(solver, T)
    SOLVERS[solver].solve(spec, x0)
    # open-loop Nash: T + n, was T (n + 1); open-loop Stackelberg: 2T + n,
    # was T (n + 2)
    assert sum(dense_calls.values()) == PER_STAGE[solver] * T + PER_SWEEP[solver]


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_time_consistency_calls_do_not_grow_with_the_lanes(solver, dense_calls):
    for T in (6, 18):
        spec, x0 = game_for(solver, T)
        row = SOLVERS[solver]
        sol = row.solve(spec, x0)
        dense_calls.clear()
        verify.time_consistency(spec, sol, row.pattern)
        # one sweep over stages 1..T-1 holding T-1 lanes
        assert sum(dense_calls.values()) == PER_STAGE[solver] * (T - 1) + PER_SWEEP[solver]


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
