"""The stacked stage arrays every solver and rollout read.

``StageArrays.of(spec)`` lays a game's StageData out over stages and
players.  These tests pin its fields to the StageData entries, its typed
refusal of misshapen stages, and the solvers built on it to their
per-player forms in ``reference_formulations``.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from dyngame import feedback_nash, feedback_stackelberg, openloop_nash
from dyngame.errors import InvalidGameError
from dyngame.game import StageArrays, rollout

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for

# Fixed before comparing: the stacked and per-player recursions sum the
# same products in another order, so they agree to roundoff relative to
# the size of what they compute.
RTOL = 1e-10


def games():
    """Seeded conftest games: n = 1-4 players, one StageData broadcast over
    the horizon or one per stage, with drifts and targets, T <= 12."""
    for n in (1, 2, 3, 4):
        for time_varying in (False, True):
            for k in range(6):
                seed = 1000 * n + 100 * time_varying + k
                yield random_game(seed, n_players=n, horizon=1 + (seed * 7) % 12,
                                  time_varying=time_varying), seed


def assert_close(new, reference, what):
    new, reference = np.asarray(new), np.asarray(reference)
    assert new.shape == reference.shape, what
    gap = np.abs(new - reference).max(initial=0.0)
    assert gap <= RTOL * (1 + np.abs(reference).max(initial=0.0)), (what, gap)


def assert_same_laws(new, reference):
    for i, (a, b) in enumerate(zip(new.laws, reference.laws, strict=True)):
        assert_close(a.G, b.G, f"G[{i}]")
        assert_close(a.g, b.g, f"g[{i}]")


def test_fields_hold_the_stage_data_exactly():
    for spec, _ in games():
        view = StageArrays.of(spec)
        assert [view.owner[b].tolist() for b in view.blocks] == [
            [i] * m for i, m in enumerate(spec.control_dims)]
        for t, st in enumerate(spec.stages):
            assert np.array_equal(view.A[t], st.A)
            assert np.array_equal(view.B[t], np.hstack(st.B))
            assert np.array_equal(view.s[t], st.s)
            assert np.array_equal(view.Q[t], np.array(st.Q))
            assert np.array_equal(view.xt[t], np.array(st.x_target))
            for i in range(spec.n_players):
                assert np.array_equal(view.R[t, i], block_diag(*st.R[i]))
                assert np.array_equal(view.ut[t, i], np.concatenate(st.u_target[i]))


def test_fields_are_read_only():
    view = StageArrays.of(random_game(3, n_players=2, horizon=4))
    for name in ("A", "B", "s", "Q", "xt", "R", "ut", "owner"):
        with pytest.raises(ValueError):
            getattr(view, name)[...] = 0.0


def test_rollout_refuses_a_misshapen_stage():
    spec = random_game(5, n_players=2, state_dim=2, horizon=3, control_dims=[1, 1],
                       time_varying=True)
    st = spec.stages[1]
    bad = replace(spec, stages=(spec.stages[0], replace(st, B=(np.eye(2), st.B[1])),
                                spec.stages[2]))
    controls = [np.zeros((3, 1)), np.zeros((3, 1))]
    with pytest.raises(InvalidGameError, match=r"stages/1/B/0: expected shape \(2, 1\), got \(2, 2\)"):
        rollout(bad, controls, np.zeros(2))
    short = replace(spec, stages=(spec.stages[0], replace(st, Q=st.Q[:1]), spec.stages[2]))
    with pytest.raises(InvalidGameError, match="stages/1/Q: expected 2 state weights, got 1"):
        rollout(short, controls, np.zeros(2))


def test_feedback_nash_matches_the_per_player_form():
    for spec, seed in games():
        new, reference = feedback_nash.solve(spec), ref.feedback_nash_per_player(spec)
        assert_same_laws(new, reference)
        for name in ("Z", "zeta", "n_const"):
            assert_close(getattr(new, name), getattr(reference, name), (seed, name))


def test_feedback_stackelberg_matches_the_per_player_form():
    for spec, seed in games():
        if spec.n_players < 2:
            continue
        new = feedback_stackelberg.solve(spec)
        reference = ref.feedback_stackelberg_per_player(spec)
        assert_same_laws(new, reference)
        for name in ("Z", "zeta", "n_const"):
            assert_close(getattr(new, name), getattr(reference, name), (seed, name))
        for name in ("W", "rbar", "w"):
            for k, (a, b) in enumerate(zip(getattr(new.reactions, name),
                                           getattr(reference.reactions, name), strict=True)):
                assert_close(a, b, (seed, name, k))


@pytest.mark.parametrize("samples", (None, 3))
def test_openloop_nash_matches_the_per_player_form(samples):
    for spec, seed in games():
        x0 = random_x0(seed, spec)
        if samples is None:
            drifts, new = None, openloop_nash.solve(spec, x0)
        else:
            drifts = rng_for(seed).standard_normal((samples, spec.horizon, spec.state_dim))
            new = ref.drift_batched_solve(spec, x0, drifts)
        reference = ref.openloop_nash_per_player(spec, x0, drifts=drifts)
        assert_same_laws(new, reference)
        for name in ("M", "m", "Phi", "phi"):
            assert_close(getattr(new, name), getattr(reference, name), (seed, name))
        for field in ("states", "stage_costs", "total_costs"):
            assert_close(getattr(new.trajectory, field), getattr(reference.trajectory, field),
                         (seed, field))
        for i, (a, b) in enumerate(zip(new.trajectory.controls, reference.trajectory.controls,
                                       strict=True)):
            assert_close(a, b, (seed, "controls", i))
