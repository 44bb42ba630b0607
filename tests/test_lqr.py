import numpy as np
import pytest
from scipy.optimize import minimize

from dyngame import lqr
from dyngame.errors import InvalidGameError
from dyngame.game import constant_game, rollout, stage_cost

import reference_formulations as ref
from conftest import act, random_game, random_x0, rng_for, scalar_unit_lqr


def test_scalar_unit_instance():
    # one-step calculus: min_u 1/2 (1+u)^2 + 1/2 u^2 at u = -1/2, value 1/4
    sol = lqr.solve_control(scalar_unit_lqr())
    assert sol.laws[0].G[0][0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert sol.value(np.array([1.0])) == pytest.approx(0.25, abs=1e-12)


def test_zero_state_cost_gives_zero_control():
    spec = constant_game(A=[[1.3]], B=[[[1.0]]], Q=[[[0.0]]], R=[[[[1.0]]]], T=4)
    sol = lqr.solve_control(spec)
    for t in range(4):
        assert np.allclose(sol.laws[0].G[t], 0.0)
        assert np.allclose(sol.laws[0].g[t], 0.0)
    assert sol.value(np.array([2.0])) == 0.0


def test_uncontrollable_input_gives_drift_cost():
    spec = constant_game(A=[[0.5]], B=[[[0.0]]], Q=[[[1.0]]], R=[[[[1.0]]]],
                         T=3, s=[1.0])
    sol = lqr.solve_control(spec)
    x0 = np.array([1.0])
    traj = rollout(spec, sol.laws, x0)
    assert np.allclose(np.concatenate(list(traj.controls[0])), 0.0)
    assert sol.value(x0) == pytest.approx(traj.total_costs[0], rel=1e-12)


def test_value_matches_brute_force():
    spec = random_game(101, n_players=1, targets=False)
    x0 = random_x0(101, spec)
    sol = lqr.solve_control(spec)
    T, m = spec.horizon, spec.control_dims[0]

    def J(u_flat):
        return rollout(spec, [u_flat.reshape(T, m)], x0).total_costs[0]

    res = minimize(J, np.zeros(T * m), method="BFGS", options={"gtol": 1e-12})
    assert sol.value(x0) == pytest.approx(res.fun, rel=1e-8)


def test_bellman_consistency():
    # cost-to-go(t, x) = stage cost at optimal u + cost-to-go(t+1, x+)
    spec = random_game(103, n_players=1, targets=False, state_dim=3, horizon=5)
    sol = lqr.solve_control(spec)
    rng = rng_for(104)
    for t in range(spec.horizon):
        x = rng.standard_normal(spec.state_dim)
        u = act(sol.laws[0], t, x)
        st = spec.stages[t]
        x_next = st.A @ x + st.B[0] @ u + st.s
        lhs = sol.cost_to_go(t, x)
        rhs = stage_cost(spec, 0, t, x_next, [u]) + sol.cost_to_go(t + 1, x_next)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_value_constant_matters_for_affine_games():
    spec = random_game(105, n_players=1, targets=False, horizon=4)
    assert any(np.any(st.s) for st in spec.stages)
    sol = lqr.solve_control(spec)
    # n_0 is the value at x0 = 0; must match the realized rollout cost.
    traj = rollout(spec, sol.laws, np.zeros(spec.state_dim))
    assert sol.n_const[0] == pytest.approx(traj.total_costs[0], rel=1e-10)


def test_terminal_coefficients():
    spec = random_game(107, n_players=1, targets=False)
    sol = lqr.solve_control(spec)
    assert np.array_equal(sol.Z[spec.horizon], spec.stages[-1].Q[0])
    assert not np.any(sol.zeta[spec.horizon])
    assert sol.n_const[spec.horizon] == 0.0


def test_rejects_multiplayer_and_targets():
    from conftest import scalar_unit_two_player
    with pytest.raises(InvalidGameError):
        lqr.solve_control(scalar_unit_two_player())
    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[1.0]]], R=[[[[1.0]]]],
                         T=1, x_target=[[1.0]])
    with pytest.raises(InvalidGameError, match="feedback Nash"):
        lqr.solve_control(spec)


class TestPremultipliedCrossCheck:
    def test_scalar_instance(self):
        assert ref.lqr_crosscheck_premultiplied(scalar_unit_lqr()) <= 1e-12

    @pytest.mark.parametrize("seed,p,m,T", [(11, 2, 1, 3), (12, 3, 2, 5)])
    def test_random_instances(self, seed, p, m, T):
        spec = random_game(seed, n_players=1, state_dim=p, control_dims=[m],
                           horizon=T, targets=False)
        assert ref.lqr_crosscheck_premultiplied(spec) <= 1e-12
