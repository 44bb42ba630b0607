"""The drift axis of the open-loop Nash solver and the open-loop leader checks.

``openloop_nash.solve(spec, x0, drifts)`` solves S games that differ only
in their stage drifts with one matrix sweep.  ``verify.leader_cost_open_loop``
uses it to price S leader sequences with one re-solve of the followers'
game, and the open-loop Stackelberg leader gap and leader stationarity make
one such call each.  These tests pin the batched solve to S separate
solves, the leader checks to the per-sample fold-and-solve loop in
``reference_formulations``, and the number of solves per check.
"""

from dataclasses import replace

import numpy as np
import pytest

from dyngame import openloop_nash, openloop_stackelberg, verify
from dyngame.errors import InvalidGameError
from dyngame.game import drop_player, fold_player_controls, folded_drifts, rollout

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for

SEEDS = (3, 17, 42, 101, 7, 64)
# Fixed before comparing: leader costs and gaps are costs of size |J|
# summed in another order; the stationarity residuals divide cost
# roundoff by the 1e-5 step.
COST_RTOL = 1e-12
STATIONARITY_ATOL = 1e-8


def with_drifts(spec, drifts):
    """The game with stage t's drift replaced by ``drifts[t]``."""
    return replace(spec, stages=tuple(replace(st, s=d) for st, d in zip(spec.stages, drifts)))


def assert_same_solution(batch, k, one):
    """Sample k of a drift-batched solution against a separate solve."""
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(batch.trajectory.states[k], one.trajectory.states, **close)
    np.testing.assert_allclose(batch.trajectory.total_costs[k], one.trajectory.total_costs,
                               rtol=1e-12)
    for i in range(len(one.laws)):
        np.testing.assert_allclose(batch.trajectory.controls[i][k], one.trajectory.controls[i],
                                   **close)
        np.testing.assert_array_equal(batch.laws[i].G, one.laws[i].G)
        np.testing.assert_allclose(batch.laws[i].g[k], one.laws[i].g, **close)
    np.testing.assert_array_equal(batch.M, one.M)
    np.testing.assert_array_equal(batch.Phi, one.Phi)
    np.testing.assert_allclose(batch.m[k], one.m, **close)
    np.testing.assert_allclose(batch.phi[k], one.phi, **close)


def stackelberg(seed):
    spec = random_game(seed, n_players=2 + seed % 2, time_varying=True)
    x0 = random_x0(seed, spec)
    return spec, openloop_stackelberg.solve(spec, x0), x0


# ---------------------------------------------------------------------------
# The drift axis of openloop_nash.solve


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_solve_equals_separate_solves(seed):
    spec = random_game(seed, time_varying=bool(seed % 2))
    x0 = random_x0(seed, spec)
    drifts = rng_for(seed).standard_normal((5, spec.horizon, spec.state_dim))
    batch = openloop_nash.solve(spec, x0, drifts=drifts)
    assert batch.trajectory.states.shape == (5, spec.horizon + 1, spec.state_dim)
    for k in range(5):
        assert_same_solution(batch, k, openloop_nash.solve(with_drifts(spec, drifts[k]), x0))


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_solve_equals_separate_solves_on_folded_games(seed):
    spec = random_game(seed, n_players=2 + seed % 2, time_varying=True)
    x0 = random_x0(seed, spec)
    U = rng_for(seed).standard_normal((4, spec.horizon, spec.control_dims[0]))
    batch = openloop_nash.solve(drop_player(spec, 0), x0, drifts=folded_drifts(spec, 0, U))
    for k in range(4):
        assert_same_solution(batch, k, openloop_nash.solve(fold_player_controls(spec, 0, U[k]), x0))


def test_plain_solve_is_the_one_sample_of_its_own_drifts():
    spec = random_game(5, n_players=3, time_varying=True)
    x0 = random_x0(5, spec)
    plain = openloop_nash.solve(spec, x0)
    one = openloop_nash.solve(spec, x0, drifts=np.array([[st.s for st in spec.stages]]))
    assert plain.trajectory.states.shape == (spec.horizon + 1, spec.state_dim)
    assert_same_solution(one, 0, plain)


@pytest.mark.parametrize("bad", [
    lambda T, p: np.zeros((T, p)),              # no sample axis
    lambda T, p: np.zeros((2, T + 1, p)),       # wrong horizon
    lambda T, p: np.zeros((2, T, p + 1)),       # wrong state dimension
    lambda T, p: np.zeros((0, T, p)),           # empty sample axis
    lambda T, p: np.zeros((1, 2, T, p)),        # two sample axes
    lambda T, p: np.full((2, T, p), np.nan),
    lambda T, p: np.where(np.eye(T, p)[None] > 0, np.inf, 0.0),
    lambda T, p: [["a"] * p] * T,
])
def test_bad_drifts_are_input_errors(bad):
    spec = random_game(2, n_players=2, horizon=3, state_dim=2)
    with pytest.raises(InvalidGameError, match="drifts"):
        openloop_nash.solve(spec, np.zeros(2), drifts=bad(3, 2))


def test_rollout_refuses_drifts_of_another_sample_count():
    spec = random_game(2, n_players=1, horizon=3, state_dim=2, control_dims=[1])
    with pytest.raises(InvalidGameError, match="samples"):
        rollout(spec, [np.zeros((4, 3, 1))], np.zeros(2), drifts=np.zeros((5, 3, 2)))


# ---------------------------------------------------------------------------
# Leader checks against the per-sample fold-and-solve loop


@pytest.mark.parametrize("seed", SEEDS)
def test_leader_costs_match_the_per_sample_loop(seed):
    spec, sol, x0 = stackelberg(seed)
    u1 = sol.trajectory.controls[0]
    U = u1 + 0.1 * rng_for(seed).standard_normal((6,) + u1.shape)
    batched = verify.leader_cost_open_loop(spec, U, x0)
    assert batched.shape == (6,)
    for k in range(6):
        loop = ref.leader_cost_open_loop(spec, U[k], x0)
        assert abs(batched[k] - loop) <= COST_RTOL * (1 + abs(loop)), (k, batched[k], loop)
    single = verify.leader_cost_open_loop(spec, u1, x0)
    assert isinstance(single, float)
    assert abs(single - sol.trajectory.total_costs[0]) <= 1e-9 * (1 + abs(single))


def test_leader_cost_refuses_misshaped_sequences():
    spec, sol, x0 = stackelberg(3)
    u1 = sol.trajectory.controls[0]
    for bad in (u1[:-1], u1[None, None], np.zeros((0,) + u1.shape)):
        with pytest.raises(InvalidGameError):
            verify.leader_cost_open_loop(spec, bad, x0)


@pytest.mark.parametrize("seed", SEEDS)
def test_leader_checks_match_the_per_sample_loop(seed):
    spec, sol, x0 = stackelberg(seed)
    J = abs(sol.trajectory.total_costs[0])
    for samples in (1, 20):
        batched = verify.leader_gap(spec, sol, verify.OPEN_LOOP, samples=samples, seed=seed)
        loop = ref.leader_gap_open_loop(spec, sol, samples, 1e-3, seed)
        assert abs(batched - loop) <= COST_RTOL * (1 + J), (samples, batched, loop)
    batched = verify.stationarity(spec, sol, verify.OPEN_LOOP, h=1e-5)
    loop = ref.stationarity(spec, sol, 1e-5)
    assert set(batched) == set(loop)
    for i in loop:
        assert abs(batched[i] - loop[i]) <= STATIONARITY_ATOL, (i, batched[i], loop[i])


# ---------------------------------------------------------------------------
# One follower re-solve per leader check


def count_solves(monkeypatch):
    calls = []
    original = openloop_nash.solve

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(openloop_nash, "solve", counted)
    return calls


@pytest.mark.parametrize("seed", (17, 42))
def test_one_follower_solve_per_leader_check(seed, monkeypatch):
    spec, sol, x0 = stackelberg(seed)
    calls = count_solves(monkeypatch)
    for samples in (5, 50):
        calls.clear()
        verify.leader_gap(spec, sol, verify.OPEN_LOOP, samples=samples)
        assert len(calls) == 1, (samples, len(calls))
    calls.clear()
    verify.stationarity(spec, sol, verify.OPEN_LOOP)
    assert len(calls) == 1


def count_rollouts(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return rollout(*args, **kwargs)

    for module in (openloop_nash, verify):
        monkeypatch.setattr(module, "rollout", counted)
    return calls


@pytest.mark.parametrize("seed", (17, 42))
def test_one_state_loop_per_leader_check(seed, monkeypatch):
    """The followers' re-solve rolls out the full game's paths, so the
    leader is priced on them without a rollout of its own."""
    spec, sol, x0 = stackelberg(seed)
    calls = count_rollouts(monkeypatch)
    for samples in (5, 50):
        calls.clear()
        verify.leader_gap(spec, sol, verify.OPEN_LOOP, samples=samples)
        assert len(calls) == 1, (samples, len(calls))
    calls.clear()
    verify.stationarity(spec, sol, verify.OPEN_LOOP)
    assert len(calls) == 2  # the leader's probes, then every follower's
