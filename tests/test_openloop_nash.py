import numpy as np
import pytest
from scipy.optimize import minimize

from dyngame import feedback_nash, lqr, openloop_nash
from dyngame.errors import InvalidGameError, SingularSystemError
from dyngame.game import constant_game, rollout, truncate

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for, scalar_unit_two_player


def test_scalar_unit_instance():
    # single-stage game: open loop coincides with the simultaneous-FOC values
    sol = openloop_nash.solve(scalar_unit_two_player(), np.array([1.0]))
    for i in range(2):
        assert sol.trajectory.controls[i][0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert sol.trajectory.states[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sol.Phi[0][0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sol.transition_residual() <= 1e-10


@pytest.mark.parametrize("x0", [np.array([1.0, 2.0]), np.array([np.nan])])
def test_bad_x0_is_input_error(x0):
    with pytest.raises(InvalidGameError, match="x0"):
        openloop_nash.solve(scalar_unit_two_player(), x0)


def test_pure_control_targets():
    ut = [np.array([0.3]), np.array([-0.8])]
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                         Q=[[[0.0]], [[0.0]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3,
                         u_target=[[ut[0], np.zeros(1)], [np.zeros(1), ut[1]]])
    sol = openloop_nash.solve(spec, np.array([2.0]))
    for i in range(2):
        assert np.allclose(sol.trajectory.controls[i], ut[i], atol=1e-13)
        assert np.allclose(sol.M[i], 0.0)
        assert np.allclose(sol.m[i], 0.0)


def test_single_player_matches_lqr_rollout():
    spec = random_game(41, n_players=1, targets=False)
    x0 = random_x0(41, spec)
    sol = openloop_nash.solve(spec, x0)
    ctrl = rollout(spec, lqr.solve_control(spec).laws, x0)
    assert np.abs(sol.trajectory.controls[0] - ctrl.controls[0]).max() <= 1e-9
    assert np.abs(sol.trajectory.states - ctrl.states).max() <= 1e-9


class TestCostates:
    def test_terminal_condition_exact(self):
        spec = random_game(401, n_players=2)
        sol = openloop_nash.solve(spec, random_x0(401, spec))
        p = openloop_nash.costates(sol)
        assert np.abs(p[:, -1]).max() == 0.0

    def test_scalar_value(self):
        # p_0 = A'(M_1 x_1 + m_1 - Q xt) = 1 * (1/3) on the unit instance
        sol = openloop_nash.solve(scalar_unit_two_player(), np.array([1.0]))
        p = openloop_nash.costates(sol)
        assert p[0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert openloop_nash.kkt_residuals(sol)["adjoint"] <= 1e-12

    def test_zero_state_cost_zero_costates(self):
        spec = constant_game(A=[[1.1]], B=[[[1.0]], [[1.0]]],
                             Q=[[[0.0]], [[0.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3)
        sol = openloop_nash.solve(spec, np.array([1.0]))
        assert np.abs(openloop_nash.costates(sol)).max() == 0.0


def test_kkt_residuals_small_on_random_instances():
    for seed in (403, 404, 405):
        spec = random_game(seed)
        sol = openloop_nash.solve(spec, random_x0(seed, spec))
        res = openloop_nash.kkt_residuals(sol)
        assert max(res.values()) <= 1e-9, res


def test_unilateral_deviation_cannot_improve():
    spec = random_game(407, n_players=2)
    x0 = random_x0(407, spec)
    sol = openloop_nash.solve(spec, x0)
    rng = rng_for(408)
    T = spec.horizon
    base = sol.trajectory.total_costs
    for i in range(2):
        m = spec.control_dims[i]
        for _ in range(20):
            delta = rng.standard_normal((T, m))
            delta *= 1e-3 / np.linalg.norm(delta)
            us = [sol.trajectory.controls[j] if j != i
                  else sol.trajectory.controls[i] + delta for j in range(2)]
            assert rollout(spec, us, x0).total_costs[i] >= base[i] - 1e-8


def test_open_loop_optimum_is_exact_best_response():
    spec = random_game(409, n_players=2, state_dim=2, horizon=3)
    x0 = random_x0(409, spec)
    sol = openloop_nash.solve(spec, x0)
    T = spec.horizon
    for i in range(2):
        m = spec.control_dims[i]

        def J(u_flat, i=i):
            us = [sol.trajectory.controls[j] if j != i else u_flat.reshape(T, m)
                  for j in range(2)]
            return rollout(spec, us, x0).total_costs[i]

        u_eq = sol.trajectory.controls[i].ravel()
        res = minimize(J, u_eq, method="BFGS", options={"gtol": 1e-12})
        assert J(u_eq) - res.fun <= 1e-10


def test_weak_time_consistency():
    spec = random_game(411, horizon=4, n_players=2)
    x0 = random_x0(411, spec)
    sol = openloop_nash.solve(spec, x0)
    for s in range(1, spec.horizon):
        tail = openloop_nash.solve(truncate(spec, s), sol.trajectory.states[s])
        for i in range(2):
            assert np.abs(tail.trajectory.controls[i]
                          - sol.trajectory.controls[i][s:]).max() <= 1e-9


def test_single_stage_equals_feedback_nash():
    spec = random_game(413, horizon=1, n_players=3)
    x0 = random_x0(413, spec)
    ol = openloop_nash.solve(spec, x0)
    fb = rollout(spec, feedback_nash.solve(spec).laws, x0)
    for i in range(3):
        assert np.abs(ol.trajectory.controls[i] - fb.controls[i]).max() <= 1e-10


def test_singular_transition_operator_reported():
    # B (R)^'t B' M = -I makes I + sum B R^-1 B' M vanish; bypass validation
    # (indefinite Q) to reach the transition solve.
    from unittest import mock

    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[-1.0]]], R=[[[[1.0]]]], T=1)
    with mock.patch.object(openloop_nash, "require_valid"):
        with pytest.raises(SingularSystemError, match="transition operator"):
            openloop_nash.solve(spec, np.array([1.0]))


class TestShiftedCostateRewrite:
    def test_scalar_instance(self):
        spec = scalar_unit_two_player()
        x0 = np.array([1.0])
        a = openloop_nash.solve(spec, x0)
        b = ref.openloop_nash_solve_alt(spec, x0)
        assert ref.control_deviation(a, b) <= 1e-12

    @pytest.mark.parametrize("seed,n,p,T", [(42, 3, 2, 4), (43, 1, 2, 3)])
    def test_random_instances(self, seed, n, p, T):
        spec = random_game(seed, n_players=n, state_dim=p, horizon=T)
        x0 = random_x0(seed, spec)
        a = openloop_nash.solve(spec, x0)
        b = ref.openloop_nash_solve_alt(spec, x0)
        assert ref.control_deviation(a, b) <= 1e-10

    def test_costate_coefficients_match(self):
        spec = random_game(415, n_players=2)
        x0 = random_x0(415, spec)
        a = openloop_nash.solve(spec, x0)
        b = ref.openloop_nash_solve_alt(spec, x0)
        assert np.abs(a.M - b.M).max() <= 1e-9
        assert np.abs(a.m - b.m).max() <= 1e-9
