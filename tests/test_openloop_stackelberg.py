import numpy as np
import pytest
from scipy.optimize import minimize

from dyngame import feedback_stackelberg, openloop_nash, openloop_stackelberg
from dyngame.errors import InvalidGameError
from dyngame.game import StageArrays, constant_game, rollout, truncate
from dyngame.verify import leader_cost_open_loop

import reference_formulations as ref
from conftest import random_game, random_x0, scalar_unit_two_player


def test_scalar_unit_instance():
    sol = openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]))
    assert sol.trajectory.controls[0][0, 0] == pytest.approx(-0.2, abs=1e-12)
    assert sol.trajectory.controls[1][0, 0] == pytest.approx(-0.4, abs=1e-12)
    assert ref.openloop_stackelberg_transition_residual(sol) <= 1e-10


def _stacked_costates(ref_sol):
    """The per-follower costate coefficients laid out as the stacked
    (K, k): leader rows first, then each follower's."""
    nf, T1, p = ref_sol.mv.shape
    K = np.zeros((T1, (nf + 1) * p, (nf + 1) * p))
    k = np.zeros((T1, (nf + 1) * p))
    K[:, :p, :p], k[:, :p] = ref_sol.Lx, ref_sol.lv
    for a in range(nf):
        rows = slice((a + 1) * p, (a + 2) * p)
        K[:, :p, rows] = ref_sol.Lmu[a]
        K[:, rows, :p], k[:, rows] = ref_sol.Mx[a], ref_sol.mv[a]
        for b in range(nf):
            K[:, rows, (b + 1) * p:(b + 2) * p] = ref_sol.Mmu[a, b]
    return K, k


def _assert_matches_per_follower(sol, ref_sol):
    def close(a, b):
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(b).max(initial=0.0))

    for u, u_ref in zip(sol.trajectory.controls, ref_sol.trajectory.controls):
        close(u, u_ref)
    close(sol.mu, ref_sol.mu)
    K, k = _stacked_costates(ref_sol)
    k_sol = openloop_stackelberg.sweep(StageArrays.of(sol.spec))[1]
    p = sol.spec.state_dim
    for r in range(0, K.shape[1], p):
        for c in range(0, K.shape[2], p):
            close(sol.K[:, r:r + p, c:c + p], K[:, r:r + p, c:c + p])
        close(k_sol[:, r:r + p], k[:, r:r + p])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("time_varying", [False, True])
def test_matches_per_follower_formulation(n, time_varying):
    for seed in range(700, 706):
        spec = random_game(seed, n_players=n, time_varying=time_varying)
        x0 = random_x0(seed, spec)
        sol = openloop_stackelberg.solve(spec, x0)
        _assert_matches_per_follower(sol, ref.openloop_stackelberg_per_follower(spec, x0))
        if spec.horizon > 1:
            s = spec.horizon // 2
            tail = truncate(spec, s)
            x_s, mu_s = sol.trajectory.states[s], sol.mu[:, s]
            _assert_matches_per_follower(
                openloop_stackelberg.solve(tail, x_s, initial_mu=mu_s),
                ref.openloop_stackelberg_per_follower(tail, x_s, initial_mu=mu_s))


def test_boundary_conditions_exact():
    spec = random_game(51, n_players=2)
    sol = openloop_stackelberg.solve(spec, random_x0(51, spec))
    k = openloop_stackelberg.sweep(StageArrays.of(spec))[1]
    T, p = spec.horizon, spec.state_dim
    assert np.abs(sol.mu[:, 0]).max() == 0.0
    assert np.abs(k[T, p:]).max() == 0.0
    assert np.abs(k[T, :p]).max() == 0.0
    assert np.array_equal(sol.K[T, :p, :p], spec.stages[T - 1].Q[0])
    assert np.abs(sol.K[T, p:, p:]).max() == 0.0


def test_linear_quadratic_zero_offsets():
    spec = random_game(501, n_players=2, affine=False, targets=False)
    N, _, g, terms = openloop_stackelberg.sweep(StageArrays.of(spec))[2:]
    M = sum(spec.control_dims)
    # the path offsets alpha, the extended-state drift xi = sz + Bz g and
    # the cocontrol offsets nv
    assert np.abs(g[:, :M]).max(initial=0.0) <= 1e-12
    assert np.abs(terms.sz + np.einsum("tij,tj->ti", terms.Bz, g)).max(initial=0.0) <= 1e-12
    assert np.abs(N[..., -1]).max(initial=0.0) <= 1e-12


def multipliers(sol):
    """Leader costates lambda_0..lambda_T, follower costates p_0..p_T and
    cocontrols v_0..v_{T-1} along the path, read off the stacked
    coefficients, the solution's K and its sweep's k, N and nv:
    (K_t - W_t) z_t + k_t and N_t (x_{t+1}, mu_t) + nv_t."""
    spec = sol.spec
    k, N = openloop_stackelberg.sweep(StageArrays.of(spec))[1:3]
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    x = sol.trajectory.states
    z = np.hstack([x, sol.mu.transpose(1, 0, 2).reshape(T + 1, -1)])
    costates = np.empty((T + 1, n, p))
    for t in range(T + 1):
        K_t = sol.K[t].copy()
        for i in range(n):
            K_t[i * p:(i + 1) * p, :p] -= spec.prev_state_weight(t, i)
        costates[t] = (K_t @ z[t] + k[t]).reshape(n, p)
    v = np.array([N[t, :, :-1] @ np.concatenate([x[t + 1], z[t, p:]]) + N[t, :, -1]
                  for t in range(T)])
    v = tuple(np.split(v, np.cumsum(spec.control_dims[1:-1]), axis=1))
    return costates[:, 0], costates[:, 1:].transpose(1, 0, 2), v


class TestCostateReconstruction:
    def test_terminal_conditions(self):
        spec = random_game(503, n_players=3, state_dim=2)
        sol = openloop_stackelberg.solve(spec, random_x0(503, spec))
        lam, pco, _ = multipliers(sol)
        assert np.abs(lam[-1]).max() == 0.0
        assert np.abs(pco[:, -1]).max() == 0.0

    def test_zero_state_costs_zero_multipliers(self):
        spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                             Q=[[[0.0]], [[0.0]]],
                             R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=3)
        sol = openloop_stackelberg.solve(spec, np.array([1.0]))
        lam, pco, v = multipliers(sol)
        assert np.abs(lam).max() == 0.0
        assert np.abs(pco).max() == 0.0
        assert max(np.abs(vi).max() for vi in v) == 0.0

    def test_scalar_instance_residuals(self):
        sol = openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]))
        res = ref.openloop_stackelberg_kkt_residuals(sol)
        assert max(res.values()) <= 1e-10, res
        lam, pco, v = multipliers(sol)
        # hand-derived multipliers of the unit instance
        assert lam[0, 0] == pytest.approx(0.2, abs=1e-12)
        assert pco[0, 0, 0] == pytest.approx(0.4, abs=1e-12)
        assert v[0][0, 0] == pytest.approx(-0.2, abs=1e-12)


@pytest.mark.parametrize("seed,n", [(505, 2), (506, 3)])
def test_kkt_residuals_on_random_instances(seed, n):
    spec = random_game(seed, n_players=n, state_dim=2)
    sol = openloop_stackelberg.solve(spec, random_x0(seed, spec))
    res = ref.openloop_stackelberg_kkt_residuals(sol)
    assert max(res.values()) <= 1e-8, res


def test_followers_play_reduced_open_loop_nash():
    spec = random_game(507, n_players=3, state_dim=2)
    x0 = random_x0(507, spec)
    sol = openloop_stackelberg.solve(spec, x0)
    reduced = ref.fold_player_controls(spec, 0, sol.trajectory.controls[0])
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
        N = openloop_stackelberg.sweep(StageArrays.of(spec))[2]
        T, p = spec.horizon, spec.state_dim
        m2 = spec.control_dims[1]
        for t in range(T - 1, -1, -1):
            st = spec.stages[t]
            B2, R12 = st.B[1], st.R[0][1]
            K = sol.K[t + 1]
            Lx, Lmu, Mx, Mmu = K[:p, :p], K[:p, p:], K[p:, :p], K[p:, p:]
            core = (B2.T @ (st.Q[1] + Lmu) @ B2 + np.eye(m2)
                    - R12 @ B2.T @ Mmu @ B2)
            rhs = -(B2.T @ Lx - R12 @ B2.T @ Mx)
            assert np.abs(core @ N[t][:, :p] - rhs).max() <= 1e-9


def test_rejects_non_numeric_initial_mu():
    # a bare ValueError before initial_mu went through game._numeric
    with pytest.raises(InvalidGameError, match="^initial_mu is not a numeric array"):
        openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]), initial_mu=[["a"]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_initial_mu(bad):
    # a non-finite multiplier would walk a NaN or Inf path, as a non-finite
    # x0 would; both are refused as input errors
    with pytest.raises(InvalidGameError, match="^initial_mu must be finite"):
        openloop_stackelberg.solve(scalar_unit_two_player(), np.array([1.0]), initial_mu=[[bad]])
