import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dyngame import feedback_nash, feedback_stackelberg, lqr
from dyngame.errors import InvalidGameError
from dyngame.game import constant_game, rollout, stage_cost, truncate

import reference_formulations as ref
from conftest import act, random_game, random_x0, rng_for, scalar_unit_two_player


def bilevel_scalar_oracle(x0=1.0):
    """Numeric bilevel solution of the scalar unit instance: the follower
    best-responds u2 = -(x0+u1)/2, the leader minimizes through it."""
    def leader_cost(u1):
        u2 = -(x0 + u1) / 2.0
        x1 = x0 + u1 + u2
        return 0.5 * x1 ** 2 + 0.5 * u1 ** 2

    res = minimize_scalar(leader_cost, bounds=(-2.0, 2.0), method="bounded",
                          options={"xatol": 1e-12})
    u1 = res.x
    return u1, -(x0 + u1) / 2.0


def test_scalar_unit_instance_against_bilevel_oracle():
    u1_star, u2_star = bilevel_scalar_oracle()
    assert u1_star == pytest.approx(-0.2, abs=1e-6)
    assert u2_star == pytest.approx(-0.4, abs=1e-6)

    sol = feedback_stackelberg.solve(scalar_unit_two_player())
    assert sol.laws[0].G[0][0, 0] == pytest.approx(-0.2, abs=1e-12)
    assert sol.laws[1].G[0][0, 0] == pytest.approx(-0.4, abs=1e-12)
    assert sol.reactions.rbar[0][0][0, 0] == pytest.approx(-0.5, abs=1e-12)
    assert sol.reactions.W[0][0][0, 0] == pytest.approx(-0.5, abs=1e-12)
    # leader's value 0.1 x0^2
    assert sol.value(np.array([1.0]), 0) == pytest.approx(0.1, abs=1e-12)


def test_stage_reaction_values():
    sol = feedback_stackelberg.solve(scalar_unit_two_player())
    x = np.array([1.0])
    assert sol.stage_reaction(0, x, np.array([-0.2]))[0][0] == pytest.approx(-0.4, abs=1e-12)
    assert sol.stage_reaction(0, x, np.array([0.0]))[0][0] == pytest.approx(-0.5, abs=1e-12)


def test_reaction_zero_when_follower_decoupled():
    # no follower state cost and orthogonal input channels: reaction never moves
    spec = constant_game(A=np.eye(2), B=[np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])],
                         Q=[np.eye(2), np.zeros((2, 2))],
                         R=[[np.eye(1), np.zeros((1, 1))], [np.zeros((1, 1)), np.eye(1)]],
                         T=2)
    sol = feedback_stackelberg.solve(spec)
    rng = rng_for(31)
    for t in range(2):
        r = sol.stage_reaction(t, rng.standard_normal(2), rng.standard_normal(1))
        assert np.allclose(r[0], 0.0, atol=1e-13)


def test_uncontrollable_follower_reduces_to_lqr_leader():
    ut22 = np.array([0.7])
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[0.0]]],
                         Q=[[[1.0]], [[1.0]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=1,
                         u_target=[[np.zeros(1), np.zeros(1)], [np.zeros(1), ut22]])
    sol = feedback_stackelberg.solve(spec)
    assert sol.laws[0].G[0][0, 0] == pytest.approx(-0.5, abs=1e-12)
    traj = rollout(spec, sol.laws, np.array([1.0]))
    assert np.allclose(traj.controls[1], ut22, atol=1e-13)


def test_linear_quadratic_gives_zero_offsets():
    spec = random_game(301, n_players=2, affine=False, targets=False)
    sol = feedback_stackelberg.solve(spec)
    for t in range(spec.horizon):
        for i in range(2):
            assert np.abs(sol.laws[i].g[t]).max(initial=0.0) <= 1e-12


def test_reaction_consistency_identities():
    spec = random_game(303, n_players=3, state_dim=2)
    sol = feedback_stackelberg.solve(spec)
    assert feedback_stackelberg.reaction_consistency(sol) <= 1e-10


def test_follower_stagewise_optimality():
    spec = random_game(305, n_players=2)
    sol = feedback_stackelberg.solve(spec)
    rng = rng_for(306)
    h = 1e-4
    m2 = spec.control_dims[1]
    for t in range(spec.horizon):
        x = rng.standard_normal(spec.state_dim)
        u1 = rng.standard_normal(spec.control_dims[0])
        r = sol.stage_reaction(t, x, u1)[0]

        def follower_tail(u2):
            st = spec.stages[t]
            xn = st.A @ x + st.s + st.B[0] @ u1 + st.B[1] @ u2
            return stage_cost(spec, 1, t, xn, [u1, u2]) + sol.cost_to_go(t + 1, xn, 1)

        base = follower_tail(r)
        for k in range(m2):
            for sign in (+1.0, -1.0):
                d = np.zeros(m2)
                d[k] = sign * h
                assert follower_tail(r + d) >= base - 1e-8


def test_leader_stagewise_optimality():
    spec = random_game(307, n_players=2)
    sol = feedback_stackelberg.solve(spec)
    rng = rng_for(308)
    h = 1e-4
    m1 = spec.control_dims[0]
    for t in range(spec.horizon):
        x = rng.standard_normal(spec.state_dim)

        def leader_tail(u1):
            us = [u1] + sol.stage_reaction(t, x, u1)
            st = spec.stages[t]
            xn = st.A @ x + st.s + sum(st.B[j] @ us[j] for j in range(2))
            return stage_cost(spec, 0, t, xn, us) + sol.cost_to_go(t + 1, xn, 0)

        u1_eq = act(sol.laws[0], t, x)
        base = leader_tail(u1_eq)
        for k in range(m1):
            for sign in (+1.0, -1.0):
                d = np.zeros(m1)
                d[k] = sign * h
                assert leader_tail(u1_eq + d) >= base - 1e-8


def test_strong_time_consistency():
    spec = random_game(309, n_players=2, horizon=4)
    sol = feedback_stackelberg.solve(spec)
    for s in range(1, spec.horizon):
        tail = feedback_stackelberg.solve(truncate(spec, s))
        for dt in range(spec.horizon - s):
            for i in range(2):
                assert np.abs(tail.laws[i].G[dt] - sol.laws[i].G[s + dt]).max() <= 1e-10


def test_requires_two_players_and_psd_cross_weights():
    with pytest.raises(InvalidGameError):
        feedback_stackelberg.solve(random_game(311, n_players=1))
    bad = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]], Q=[[[1.0]], [[1.0]]],
                        R=[[[[1.0]], [[-1.0]]], [[[0.0]], [[1.0]]]], T=1)
    with pytest.raises(InvalidGameError):
        feedback_stackelberg.solve(bad)


def test_value_equals_rollout():
    spec = random_game(313, n_players=3, state_dim=2)
    sol = feedback_stackelberg.solve(spec)
    x0 = random_x0(313, spec)
    traj = rollout(spec, sol.laws, x0)
    for i in range(3):
        assert sol.value(x0, i) == pytest.approx(traj.total_costs[i], abs=1e-9)


class TestTwoPlayerLqCrossCheck:
    def test_scalar_unit_instance(self):
        spec = scalar_unit_two_player()
        assert ref.feedback_stackelberg_crosscheck_two_player_lq(spec) <= 1e-12
        # the closed form reproduces the 0.2 leader gain
        sol = feedback_stackelberg.solve(spec)
        assert sol.laws[0].G[0][0, 0] == pytest.approx(-0.2, abs=1e-12)

    @pytest.mark.parametrize("seed,p,T", [(31, 2, 3), (32, 1, 5)])
    def test_random_instances(self, seed, p, T):
        spec = random_game(seed, n_players=2, state_dim=p, horizon=T,
                           control_dims=[1, 1], affine=False, targets=False,
                           identity_own_weights=True)
        assert ref.feedback_stackelberg_crosscheck_two_player_lq(spec) <= 1e-10

    def test_uncontrollable_follower(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]], [[0.0]]],
                             Q=[[[1.0]], [[1.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=2)
        assert ref.feedback_stackelberg_crosscheck_two_player_lq(spec) <= 1e-12

    def test_rejects_nonidentity_weights(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                             Q=[[[1.0]], [[1.0]]],
                             R=[[[[2.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=1)
        with pytest.raises(InvalidGameError):
            ref.feedback_stackelberg_crosscheck_two_player_lq(spec)


def test_leadership_advantage_on_unit_instance():
    # leader's Stackelberg cost 0.1 beats its Nash cost 1/9
    spec = scalar_unit_two_player()
    st = feedback_stackelberg.solve(spec)
    na = feedback_nash.solve(spec)
    x0 = np.array([1.0])
    assert st.value(x0, 0) < na.value(x0, 0)
