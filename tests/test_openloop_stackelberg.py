import numpy as np
import pytest
from scipy.optimize import minimize

from dyngame import feedback_stackelberg, openloop_nash, openloop_stackelberg
from dyngame.errors import InvalidGameError
from dyngame.game import constant_game, fold_player_controls, rollout, truncate
from dyngame.verify import leader_cost_open_loop

import reference_formulations as ref
from conftest import random_game, random_x0, scalar_unit_two_player


def test_scalar_unit_instance():
    sol = openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]))
    assert sol.trajectory.controls[0][0, 0] == pytest.approx(-0.2, abs=1e-12)
    assert sol.trajectory.controls[1][0, 0] == pytest.approx(-0.4, abs=1e-12)
    assert sol.transition_residual() <= 1e-10


def test_boundary_conditions_exact():
    spec = random_game(51, n_players=2)
    sol = openloop_stackelberg.solve(spec, random_x0(51, spec))
    T = spec.horizon
    assert np.abs(sol.mu[:, 0]).max() == 0.0
    assert np.abs(sol.mv[:, T]).max() == 0.0
    assert np.abs(sol.lv[T]).max() == 0.0
    assert np.array_equal(sol.Lx[T], spec.stages[T - 1].Q[0])
    assert np.abs(sol.Mmu[:, :, T]).max() == 0.0


def test_linear_quadratic_zero_offsets():
    spec = random_game(501, n_players=2, affine=False, targets=False)
    sol = openloop_stackelberg.solve(spec, random_x0(501, spec))
    for sm in sol.stages:
        assert np.abs(sm.alpha1).max(initial=0.0) <= 1e-12
        assert max(np.abs(a).max(initial=0.0) for a in sm.alphai) <= 1e-12
        assert np.abs(sm.phiv).max(initial=0.0) <= 1e-12
        assert max(np.abs(w).max(initial=0.0) for w in (sm.wv,)) <= 1e-12


class TestCostateReconstruction:
    def test_terminal_conditions(self):
        spec = random_game(503, n_players=3, state_dim=2)
        sol = openloop_stackelberg.solve(spec, random_x0(503, spec))
        lam, pco, _ = openloop_stackelberg.costate_reconstruction(sol)
        assert np.abs(lam[-1]).max() == 0.0
        assert np.abs(pco[:, -1]).max() == 0.0

    def test_zero_state_costs_zero_multipliers(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                             Q=[[[0.0]], [[0.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3)
        sol = openloop_stackelberg.solve(spec, np.array([1.0]))
        lam, pco, v = openloop_stackelberg.costate_reconstruction(sol)
        assert np.abs(lam).max() == 0.0
        assert np.abs(pco).max() == 0.0
        assert max(np.abs(vi).max() for vi in v) == 0.0

    def test_scalar_instance_residuals(self):
        sol = openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]))
        res = openloop_stackelberg.kkt_residuals(sol)
        assert max(res.values()) <= 1e-10, res
        lam, pco, v = openloop_stackelberg.costate_reconstruction(sol)
        # hand-derived multipliers of the unit instance
        assert lam[0, 0] == pytest.approx(0.2, abs=1e-12)
        assert pco[0, 0, 0] == pytest.approx(0.4, abs=1e-12)
        assert v[0][0, 0] == pytest.approx(-0.2, abs=1e-12)


@pytest.mark.parametrize("seed,n", [(505, 2), (506, 3)])
def test_kkt_residuals_on_random_instances(seed, n):
    spec = random_game(seed, n_players=n, state_dim=2)
    sol = openloop_stackelberg.solve(spec, random_x0(seed, spec))
    res = openloop_stackelberg.kkt_residuals(sol)
    assert max(res.values()) <= 1e-8, res


def test_followers_play_reduced_open_loop_nash():
    spec = random_game(507, n_players=3, state_dim=2)
    x0 = random_x0(507, spec)
    sol = openloop_stackelberg.solve(spec, x0)
    reduced = fold_player_controls(spec, 0, sol.trajectory.controls[0])
    reaction = openloop_nash.solve(reduced, x0)
    for k in range(2):
        assert np.abs(reaction.trajectory.controls[k]
                      - sol.trajectory.controls[k + 1]).max() <= 1e-8


def test_leader_sequence_is_bilevel_optimal():
    spec = random_game(509, n_players=2, state_dim=2, horizon=3)
    x0 = random_x0(509, spec)
    sol = openloop_stackelberg.solve(spec, x0)
    u1_eq = sol.trajectory.controls[0]
    base = leader_cost_open_loop(spec, u1_eq, x0)

    def J(u_flat):
        return leader_cost_open_loop(spec, u_flat.reshape(u1_eq.shape), x0)

    res = minimize(J, u1_eq.ravel(), method="BFGS", options={"gtol": 1e-12})
    assert base - res.fun <= 1e-9


def test_single_stage_equals_feedback_stackelberg():
    spec = random_game(511, n_players=2, horizon=1)
    x0 = random_x0(511, spec)
    ol = openloop_stackelberg.solve(spec, x0)
    fb = rollout(spec, feedback_stackelberg.solve(spec).laws, x0)
    for i in range(2):
        assert np.abs(ol.trajectory.controls[i] - fb.controls[i]).max() <= 1e-10


class TestTimeConsistency:
    def test_inherited_multipliers_reproduce_tail(self):
        spec = random_game(513, n_players=2, horizon=4)
        x0 = random_x0(513, spec)
        sol = openloop_stackelberg.solve(spec, x0)
        for s in range(1, spec.horizon):
            tail = openloop_stackelberg.solve(truncate(spec, s),
                                              sol.trajectory.states[s],
                                              initial_mu=sol.mu[:, s])
            for i in range(2):
                assert np.abs(tail.trajectory.controls[i]
                              - sol.trajectory.controls[i][s:]).max() <= 1e-9

    def test_reset_multipliers_break_the_tail(self):
        # expected negative: zeroing the inherited multipliers re-optimizes
        # the leader's remaining commitment and moves the tail.
        spec = random_game(81, n_players=2, horizon=4)
        x0 = random_x0(81, spec)
        sol = openloop_stackelberg.solve(spec, x0)
        s = 2
        tail = openloop_stackelberg.solve(truncate(spec, s), sol.trajectory.states[s])
        gap = max(np.abs(tail.trajectory.controls[i]
                         - sol.trajectory.controls[i][s:]).max() for i in range(2))
        assert gap > 1e-3


def test_requires_two_players():
    with pytest.raises(InvalidGameError):
        openloop_stackelberg.solve(random_game(515, n_players=1), np.zeros(1))


def test_rejects_bad_initial_mu_shape():
    spec = random_game(517, n_players=2, state_dim=2)
    with pytest.raises(InvalidGameError):
        openloop_stackelberg.solve(spec, np.zeros(2), initial_mu=np.zeros((3, 2)))


class TestTwoPlayerLqCrossCheck:
    def test_scalar_unit_instance(self):
        spec = scalar_unit_two_player()
        assert ref.openloop_stackelberg_crosscheck_two_player_lq(spec, np.array([1.0])) <= 1e-12

    @pytest.mark.parametrize("seed,p,T", [(51, 2, 3), (52, 1, 5)])
    def test_random_instances(self, seed, p, T):
        spec = random_game(seed, n_players=2, state_dim=p, horizon=T,
                           control_dims=[1, 1], affine=False, targets=False,
                           identity_own_weights=True)
        x0 = random_x0(seed, spec)
        assert ref.openloop_stackelberg_crosscheck_two_player_lq(spec, x0) <= 1e-10

    def test_collapsed_operator_matches_stacked_system(self):
        # with one follower the stacked operator IS the collapsed matrix
        spec = random_game(53, n_players=2, control_dims=[1, 2], affine=False,
                           targets=False, identity_own_weights=True)
        x0 = random_x0(53, spec)
        sol = openloop_stackelberg.solve(spec, x0)
        T = spec.horizon
        m2 = spec.control_dims[1]
        for t in range(T - 1, -1, -1):
            st = spec.stages[t]
            B2, R12 = st.B[1], st.R[0][1]
            core = (B2.T @ (st.Q[1] + sol.Lmu[0, t + 1]) @ B2 + np.eye(m2)
                    - R12 @ B2.T @ sol.Mmu[0, 0, t + 1] @ B2)
            rhs = -(B2.T @ sol.Lx[t + 1] - R12 @ B2.T @ sol.Mx[0, t + 1])
            assert np.abs(core @ sol.stages[t].Nx[0] - rhs).max() <= 1e-9
