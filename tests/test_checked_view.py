"""One stacking per game: the checked view that ``validate`` yields.

``validate`` stacks a game's stage data once, checks the stacks and, when
nothing is wrong, carries them in its report as the view the solvers read;
``require_valid`` returns that view.  These tests pin each solve and each
open-loop leader cost to one validation and no second stacking, the
report's view to the unchecked ``StageArrays.of`` field for field, the
player selection on the view to the view of the rebuilt game, and the
leader cost on the selection to its former form on the rebuilt followers'
game, bit for bit.
"""

from dataclasses import fields

import numpy as np
import pytest

from dyngame import game, openloop_stackelberg, verify
from dyngame.errors import InvalidGameError
from dyngame.game import StageArrays, StageData, require_valid, validate
from dyngame.solvers import SOLVERS

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for

ENTRY = {"lqr": "lqr.solve_control", "feedback-nash": "feedback_nash.solve",
         "feedback-stackelberg": "feedback_stackelberg.solve",
         "openloop-nash": "openloop_nash.solve",
         "openloop-stackelberg": "openloop_stackelberg.solve"}


def games(min_players=1):
    """Seeded conftest games, n = 1-4 players, one StageData broadcast
    over the horizon or one per stage."""
    for n in range(min_players, 5):
        for time_varying in (False, True):
            for k in range(3):
                seed = 500 + 10 * n + 5 * time_varying + k
                yield random_game(seed, n_players=n, horizon=1 + seed % 7,
                                  time_varying=time_varying), seed


def assert_same_view(a, b):
    for f in fields(StageArrays):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x == y if f.name == "blocks" else np.array_equal(x, y), f.name


@pytest.fixture
def stage_data_built(monkeypatch):
    """A list that grows by one for every StageData constructed."""
    built = []
    post_init = StageData.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(StageData, "__post_init__", counted)
    return built


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_each_solve_validates_once_and_stacks_no_second_view(solver, layer_calls):
    n = 1 if solver == "lqr" else 3
    spec = random_game(9, n_players=n, horizon=5, time_varying=True, targets=solver != "lqr")
    x0 = random_x0(9, spec)
    layer_calls.clear()
    SOLVERS[solver].solve(spec, x0)
    sweep = ("feedback_nash" if solver == "lqr" else ENTRY[solver].split(".")[0]) + ".sweep"
    assert layer_calls == {"game.validate": 1, ENTRY[solver]: 1, sweep: 1}


def test_the_report_carries_the_view_of_a_valid_game():
    for spec, seed in games():
        report = validate(spec)
        assert report.ok
        assert_same_view(report.view, StageArrays.of(spec))
        assert_same_view(require_valid(spec), report.view)
        for f in fields(StageArrays):
            if f.name != "blocks":
                assert not getattr(report.view, f.name).flags.writeable, (seed, f.name)


def test_a_game_with_violations_carries_no_view():
    spec = random_game(3, n_players=2, horizon=3)
    st = spec.stages[0]
    bad = StageData(A=st.A, B=st.B, s=st.s, Q=(st.Q[0], -np.eye(len(st.A))), R=st.R,
                    x_target=st.x_target, u_target=st.u_target)
    report = validate(game.GameSpec(spec.horizon, spec.state_dim, spec.players, (bad,) * 3))
    assert not report.ok and report.view is None


def test_player_selection_equals_the_view_of_the_rebuilt_game():
    for spec, seed in games(min_players=2):
        view = StageArrays.of(spec)
        n = spec.n_players
        for keep in ([i for i in range(n) if i != 0], [n - 1], list(range(n))[::-1]):
            assert_same_view(view.select(keep), StageArrays.of(game._player_subgame(spec, keep)))


@pytest.mark.parametrize("batched", [False, True])
def test_leader_cost_equals_the_rebuilt_game_form_bit_for_bit(batched):
    for spec, seed in games(min_players=2):
        x0 = random_x0(seed, spec)
        u1 = openloop_stackelberg.solve(spec, x0).trajectory.controls[0]
        U = u1 + 0.1 * rng_for(seed).standard_normal((5,) + u1.shape) if batched else u1
        new = verify.leader_cost_open_loop(spec, U, x0)
        assert np.array_equal(new, ref.leader_cost_on_rebuilt_game(spec, U, x0)), seed
        assert isinstance(new, np.ndarray if batched else float)


@pytest.mark.parametrize("check", ["leader_gap", "stationarity"])
def test_open_loop_leader_checks_validate_once_per_leader_cost(check, layer_calls,
                                                               stage_data_built, monkeypatch):
    spec = random_game(17, n_players=3, horizon=4, time_varying=True)
    x0 = random_x0(17, spec)
    sol = openloop_stackelberg.solve(spec, x0)
    during = []  # the layer calls each leader cost makes
    leader_cost = verify.leader_cost_open_loop

    def counted(*args, **kwargs):
        before = layer_calls.copy()
        out = leader_cost(*args, **kwargs)
        during.append(layer_calls - before)
        return out

    monkeypatch.setattr(verify, "leader_cost_open_loop", counted)
    stage_data_built.clear()
    getattr(verify, check)(spec, sol, verify.OPEN_LOOP)
    assert during == [{"game.validate": 1, "openloop_nash.sweep": 1}]
    assert not stage_data_built


def test_leader_cost_refuses_a_game_without_followers():
    spec = random_game(4, n_players=1, horizon=3)
    with pytest.raises(InvalidGameError, match="follower"):
        verify.leader_cost_open_loop(spec, np.zeros((3, spec.control_dims[0])),
                                     np.zeros(spec.state_dim))
