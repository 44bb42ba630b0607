import numpy as np
import pytest

from dyngame import feedback_nash, lqr
from dyngame.errors import InvalidGameError, SingularSystemError
from dyngame.game import GameSpec, StageArrays, constant_game, rollout, stage_cost, truncate
from dyngame.gameio import load_game
from dyngame.solvers import SOLVERS

import reference_formulations as ref
from conftest import GOLDEN, act, random_game, random_x0, rng_for, scalar_unit_two_player


def test_symmetric_unit_instance_gains():
    # simultaneous first-order conditions: (x0 + u1 + u2) + u_i = 0 by symmetry
    sol = feedback_nash.solve(scalar_unit_two_player())
    assert sol.laws[0].G[0][0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert sol.laws[1].G[0][0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_symmetric_unit_instance_values():
    sol = feedback_nash.solve(scalar_unit_two_player())
    x0 = np.array([1.0])
    # rollout: x1 = 1/3, cost = 1/2 (1/9) + 1/2 (1/9) = 1/9 each
    assert sol.value(x0, 0) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert sol.value(x0, 1) == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert sol.value(np.zeros(1), 0) == pytest.approx(0.0, abs=1e-15)


def test_single_player_matches_lqr():
    spec = random_game(201, n_players=1, targets=False)
    nash = feedback_nash.solve(spec)
    ctrl = lqr.solve_control(spec)
    for t in range(spec.horizon):
        assert np.abs(nash.laws[0].G[t] - ctrl.laws[0].G[t]).max() <= 1e-10
        assert np.abs(nash.laws[0].g[t] - ctrl.laws[0].g[t]).max() <= 1e-10
    x0 = random_x0(201, spec)
    assert nash.value(x0, 0) == pytest.approx(ctrl.value(x0), rel=1e-10)


def test_pure_control_targets_are_tracked():
    # no state cost: each player tracks its own control target with zero gain
    ut = [np.array([0.3]), np.array([-0.6])]
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                         Q=[[[0.0]], [[0.0]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3,
                         u_target=[[ut[0], np.zeros(1)], [np.zeros(1), ut[1]]])
    sol = feedback_nash.solve(spec)
    traj = rollout(spec, sol.laws, np.array([5.0]))
    for i in range(2):
        assert np.allclose(sol.laws[i].G[0], 0.0, atol=1e-14)
        assert np.allclose(traj.controls[i], ut[i], atol=1e-13)


def test_value_equals_rollout_cost():
    spec = random_game(203, n_players=3)
    sol = feedback_nash.solve(spec)
    x0 = random_x0(203, spec)
    traj = rollout(spec, sol.laws, x0)
    for i in range(3):
        assert sol.value(x0, i) == pytest.approx(traj.total_costs[i], abs=1e-9)


@pytest.mark.parametrize("seed", [211, 212, 213])
@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_cost_to_go_equals_the_rollout_cost_of_every_tail(solver, seed):
    # at t >= 1 the value coefficients must shed stage t-1's charges on
    # x_t, which t = 0 never tests: no stage charges x_0
    n = {"lqr": 1, "feedback-nash": 2, "feedback-stackelberg": 3}[solver]
    spec = random_game(seed, n_players=n, state_dim=3, control_dims=[2, 1, 2][:n], horizon=6,
                       time_varying=True, targets=solver != "lqr")
    sol = SOLVERS[solver].solve(spec, None)
    traj = rollout(spec, sol.laws, random_x0(seed, spec))
    for t in range(spec.horizon + 1):
        x = traj.states[t]
        for i in range(n):
            value = sol.cost_to_go(t, x) if solver == "lqr" else sol.cost_to_go(t, x, i)
            tail = traj.stage_costs[i, t:].sum()
            assert abs(value - tail) <= 1e-10 * abs(tail), (t, i)


def test_stagewise_best_response():
    # perturbing one player's stage control (others via laws) never helps
    spec = random_game(205, n_players=2)
    sol = feedback_nash.solve(spec)
    rng = rng_for(206)
    h = 1e-4
    for t in range(spec.horizon):
        x = rng.standard_normal(spec.state_dim)
        base = [act(sol.laws[j], t, x) for j in range(2)]
        for i in range(2):
            def tail(ui):
                us = [base[j] if j != i else ui for j in range(2)]
                st = spec.stages[t]
                xn = st.A @ x + st.s + sum(st.B[j] @ us[j] for j in range(2))
                return stage_cost(spec, i, t, xn, us) + sol.cost_to_go(t + 1, xn, i)
            c0 = tail(base[i])
            for k in range(spec.control_dims[i]):
                for sign in (+1.0, -1.0):
                    d = np.zeros(spec.control_dims[i])
                    d[k] = sign * h
                    assert tail(base[i] + d) >= c0 - 1e-8


@pytest.mark.parametrize("call, message", [
    (lambda sol, x: sol.cost_to_go(-1, x, 0), r"stage -1 outside \[0, 3\]"),
    (lambda sol, x: sol.cost_to_go(4, x, 0), r"stage 4 outside \[0, 3\]"),
    (lambda sol, x: sol.cost_to_go(0, x, -1), r"player -1 outside \[0, 1\]"),
    (lambda sol, x: sol.value(x, 2), r"player 2 outside \[0, 1\]"),
    (lambda sol, x: sol.value(x, -1), r"player -1 outside \[0, 1\]"),
], ids=["stage-1", "stage-T+1", "player-1", "value-player-n", "value-player-1"])
def test_refuses_a_stage_or_player_outside_the_game(call, message):
    # a negative index would silently count from the end
    sol = feedback_nash.solve(load_game(GOLDEN / "two_player.json"))
    with pytest.raises(InvalidGameError, match=f"^{message}$"):
        call(sol, np.array([1.0, -0.5]))


@pytest.mark.parametrize("x, message", [
    ([1.0], r"{} has shape \(1,\), expected \(2,\)"),
    ([1.0, np.nan], r"{} must be finite, got \[1.0, nan\]"),
    ([1.0, "b"], r"{} is not a numeric array: could not convert string to float: 'b'"),
], ids=["length", "nan", "string"])
@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_value_and_cost_to_go_refuse_a_state_outside_the_game(solver, x, message):
    # a wrong-length or non-numeric state raised numpy's ValueError, and a
    # NaN one gave nan; each message names the argument given
    spec = (random_game(103, n_players=1, targets=False, state_dim=2, horizon=3)
            if solver == "lqr" else load_game(GOLDEN / "two_player.json"))
    sol = SOLVERS[solver].solve(spec, None)
    player = () if solver == "lqr" else (0,)
    for name, call in (("x0", lambda: sol.value(x, *player)),
                       ("x", lambda: sol.cost_to_go(1, x, *player))):
        with pytest.raises(InvalidGameError, match=f"^{message.format(name)}$"):
            call()


def test_cost_to_go_from_the_horizon_is_zero():
    spec = load_game(GOLDEN / "two_player.json")
    sol = feedback_nash.solve(spec)
    x = np.array([1.0, -0.5])
    assert [sol.cost_to_go(spec.horizon, x, i) for i in range(2)] == [0.0, 0.0]
    assert [sol.cost_to_go(0, x, i) for i in range(2)] == [sol.value(x, i) for i in range(2)]


def test_strong_time_consistency():
    spec = random_game(207, n_players=2, horizon=4)
    sol = feedback_nash.solve(spec)
    for s in range(1, spec.horizon):
        tail = feedback_nash.solve(truncate(spec, s))
        for dt in range(spec.horizon - s):
            for i in range(2):
                assert np.abs(tail.laws[i].G[dt] - sol.laws[i].G[s + dt]).max() <= 1e-10
                assert np.abs(tail.laws[i].g[dt] - sol.laws[i].g[s + dt]).max() <= 1e-10


def test_cost_scaling_invariance():
    # scaling all of player i's weights leaves every law unchanged
    spec = random_game(209, n_players=2)
    sol = feedback_nash.solve(spec)
    c = 3.7
    from dyngame.game import StageData
    stages = []
    for st in spec.stages:
        stages.append(StageData(
            A=st.A, B=st.B, s=st.s,
            Q=(c * st.Q[0], st.Q[1]),
            R=((c * st.R[0][0], c * st.R[0][1]), st.R[1]),
            x_target=st.x_target, u_target=st.u_target))
    scaled = GameSpec(horizon=spec.horizon, state_dim=spec.state_dim,
                      players=spec.players, stages=tuple(stages))
    sol2 = feedback_nash.solve(scaled)
    assert ref.law_deviation(sol, sol2) <= 1e-9


def test_singular_stage_reported_with_stage_index():
    # scalar 2-player stacked operator [[1 + z1, z1], [z2, 1 + z2]] has
    # determinant 1 + z1 + z2, which vanishes for Q = (1, -2) at T = 1.
    # The indefinite Q would be caught by validation first, so bypass it,
    # with the unchecked view in place of the checked one, to exercise the
    # singularity path itself.
    from unittest import mock

    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                         Q=[[[1.0]], [[-2.0]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=1)
    with mock.patch.object(feedback_nash, "require_valid", StageArrays.of):
        with pytest.raises(SingularSystemError, match="stage 0"):
            feedback_nash.solve(spec)


class TestDirectLawRewrite:
    def test_scalar_instance(self):
        spec = scalar_unit_two_player()
        a = feedback_nash.solve(spec)
        b = ref.feedback_nash_solve_alt(spec)
        assert ref.law_deviation(a, b) <= 1e-12

    @pytest.mark.parametrize("seed,n", [(21, 3), (22, 1)])
    def test_random_instances(self, seed, n):
        spec = random_game(seed, n_players=n, state_dim=2)
        a = feedback_nash.solve(spec)
        b = ref.feedback_nash_solve_alt(spec)
        assert ref.law_deviation(a, b) <= 1e-10

    def test_values_agree_too(self):
        spec = random_game(211, n_players=2)
        a = feedback_nash.solve(spec)
        b = ref.feedback_nash_solve_alt(spec)
        x0 = random_x0(211, spec)
        for i in range(2):
            assert a.value(x0, i) == pytest.approx(b.value(x0, i), rel=1e-9)
