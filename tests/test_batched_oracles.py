"""The sample axis of ``rollout`` and the batched sampling oracles.

The oracles in :mod:`dyngame.verify` roll every deviation and leader-gap
sample through one state loop per check, ``rollout``'s own, and price only
the player under test.  These tests pin the sample
axis itself, check the batched oracles against the per-sample loop
formulations in ``reference_formulations`` (same sampled directions bit for
bit, same gaps to fixed tolerances), check the exact stationarity
certificates against the loop's central differences, and guard that the
number of state loops does not grow with the sample count, and that pricing
one player gives that player's bits of the full pricing.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from dyngame import game, verify
from dyngame.errors import InvalidGameError
from dyngame.game import AffineLaw, rollout, stage_cost, total_cost
from dyngame.solvers import OPEN_LOOP, SOLVERS, solver_of

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for
from test_checked_view import games

SEEDS = (3, 17, 42, 101)
# Fixed before comparing: sampled gaps are differences of costs of size
# |J| (the player's equilibrium cost), summed in another order; the
# loop's finite-difference residuals divide cost roundoff by the step.
GAP_ATOL = 1e-12
STATIONARITY_ATOL = 1e-9


def solved(solver, seed):
    """A random game fit for ``solver``, its solution and x0."""
    if solver == "lqr":
        spec = random_game(seed, n_players=1, targets=False, time_varying=True)
    elif "stackelberg" in solver:
        spec = random_game(seed, n_players=2 + seed % 2, time_varying=True)
    else:
        spec = random_game(seed, time_varying=True)
    x0 = random_x0(seed, spec)
    return spec, SOLVERS[solver].solve(spec, x0), x0


def equilibrium_costs(spec, sol, x0):
    if solver_of(sol).pattern == OPEN_LOOP:
        return sol.trajectory.total_costs
    return rollout(spec, sol.laws, x0).total_costs


# ---------------------------------------------------------------------------
# The sample axis of rollout


class TestRolloutSampleAxis:
    def test_single_rollout_matches_stage_costs(self):
        for seed in SEEDS:
            spec, sol, x0 = solved("feedback-nash", seed)
            traj = rollout(spec, sol.laws, x0)
            for i in range(spec.n_players):
                expected = total_cost(spec, traj, i)
                assert traj.total_costs[i] == pytest.approx(expected, rel=1e-13, abs=1e-300)
                for t in range(spec.horizon):
                    c = stage_cost(spec, i, t, traj.states[t + 1], [u[t] for u in traj.controls])
                    assert traj.stage_costs[i, t] == pytest.approx(c, rel=1e-13, abs=1e-300)

    def test_explicit_single_sample_matches_plain_call(self):
        spec, sol, x0 = solved("openloop-nash", 5)
        plain = rollout(spec, sol.trajectory.controls, x0)
        one = rollout(spec, [u[None] for u in sol.trajectory.controls], x0)
        assert one.states.shape == (1,) + plain.states.shape
        assert one.total_costs.shape == (1, spec.n_players)
        np.testing.assert_allclose(one.states[0], plain.states, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(one.total_costs[0], plain.total_costs, rtol=1e-13)

    def test_pricing_one_player_is_that_players_column(self):
        """The oracles price only the player under test: its stage costs
        and their sums are those of the full pricing bit for bit, for one
        path, as an unbatched rollout prices it, and for a batch."""
        for spec, seed in games():
            view, rng = game.StageArrays.of(spec), rng_for(seed)
            for S in (1, 7):
                states = rng.standard_normal((S, spec.horizon + 1, spec.state_dim))
                u = rng.standard_normal((S, spec.horizon, sum(spec.control_dims)))
                full = game._stage_costs(view, states, u)
                for i in range(spec.n_players):
                    one = game._stage_costs(view, states, u, [i])
                    np.testing.assert_array_equal(one, full[:, [i]])
                    np.testing.assert_array_equal(one[:, 0].sum(axis=-1), full.sum(axis=-1)[:, i])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_matches_separate_rollouts(self, seed):
        spec, sol, x0 = solved("feedback-nash", seed)
        rng = rng_for(seed)
        S, T, p = 7, spec.horizon, spec.state_dim
        laws = sol.laws
        # player 0 gets per-sample gains and offsets, the last player
        # per-sample explicit controls; any player between keeps its laws.
        G0 = laws[0].G + 0.1 * rng.standard_normal((S,) + laws[0].G.shape)
        g0 = laws[0].g + 0.1 * rng.standard_normal((S,) + laws[0].g.shape)
        last = spec.n_players - 1
        U = rng.standard_normal((S, T, spec.control_dims[last]))
        batch_in = list(laws)
        batch_in[0] = AffineLaw(G0, g0)
        if last > 0:
            batch_in[last] = U
        batch = rollout(spec, batch_in, x0)
        assert batch.states.shape == (S, T + 1, p)
        assert batch.stage_costs.shape == (S, spec.n_players, T)
        for s in range(S):
            one_in = list(laws)
            one_in[0] = AffineLaw(G0[s], g0[s])
            if last > 0:
                one_in[last] = U[s]
            one = rollout(spec, one_in, x0)
            np.testing.assert_allclose(batch.states[s], one.states, rtol=1e-13, atol=1e-13)
            for i in range(spec.n_players):
                np.testing.assert_allclose(batch.controls[i][s], one.controls[i],
                                           rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(batch.total_costs[s], one.total_costs, rtol=1e-13)

    def test_mismatched_sample_counts_rejected(self):
        spec = random_game(2, n_players=2, horizon=3, control_dims=[1, 2])
        x0 = np.zeros(spec.state_dim)
        with pytest.raises(InvalidGameError, match="sample counts"):
            rollout(spec, [np.zeros((4, 3, 1)), np.zeros((5, 3, 2))], x0)
        with pytest.raises(InvalidGameError, match="sample counts"):
            rollout(spec, [AffineLaw(np.zeros((4, 3, 1, spec.state_dim)), np.zeros((3, 3, 1))),
                           np.zeros((3, 2))], x0)

    @pytest.mark.parametrize("bad", [
        lambda p: [np.zeros((4, 3, 2)), np.zeros((3, 2))],       # player 0 has m = 1
        lambda p: [np.zeros((4, 2, 1)), np.zeros((3, 2))],       # wrong horizon
        lambda p: [np.zeros((2, 4, 3, 1)), np.zeros((3, 2))],    # two sample axes
        lambda p: [AffineLaw(np.zeros((3, 1, p + 1)), np.zeros((3, 1))), np.zeros((3, 2))],
        lambda p: [AffineLaw(np.zeros((3, 1, p)), np.zeros((3, 2))), np.zeros((3, 2))],
        lambda p: [np.zeros((0, 3, 1)), np.zeros((3, 2))],       # empty sample axis
        lambda p: [np.zeros((3, 1))],                             # one player missing
    ])
    def test_bad_shapes_are_input_errors(self, bad):
        spec = random_game(2, n_players=2, horizon=3, control_dims=[1, 2])
        with pytest.raises(InvalidGameError):
            rollout(spec, bad(spec.state_dim), np.zeros(spec.state_dim))

    def test_stage_major_laws_are_input_errors(self):
        # laws[t][i] is not a per-player entry; with T = n it even has the
        # right length
        spec = random_game(4, n_players=2, horizon=2, state_dim=2, control_dims=[1, 1])
        laws = [[AffineLaw(np.zeros((1, 2)), np.zeros(1))] * 2] * 2
        with pytest.raises(InvalidGameError, match="not a numeric array"):
            rollout(spec, laws, np.zeros(2))


# ---------------------------------------------------------------------------
# Batched oracles against the per-sample loop reference


@pytest.mark.parametrize("solver", list(SOLVERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_directions_are_bit_identical(solver, seed):
    spec, sol, x0 = solved(solver, seed)
    for player in range(spec.n_players):
        if SOLVERS[solver].pattern == OPEN_LOOP:
            u = sol.trajectory.controls[player]
            batched = verify._sequence_perturbations(u, 9, 1e-3, verify._rng(seed))
            loop = np.array(list(ref.sequence_perturbations(u, 9, 1e-3, verify._rng(seed))))
            np.testing.assert_array_equal(batched, loop)
        else:
            law = sol.laws[player]
            batched = verify._law_perturbations(law, 9, 1e-3, verify._rng(seed))
            loop = [law] + list(ref.law_perturbations(law, 9, 1e-3, verify._rng(seed)))
            np.testing.assert_array_equal(batched.G, [dev.G for dev in loop])  # the law first
            np.testing.assert_array_equal(batched.g, [dev.g for dev in loop])


def test_unit_rows_match_sequential_draws():
    for seed in SEEDS:
        for size in (1, 3, 8, 48, 333):
            batched = verify._unit_rows(verify._rng(seed), 13, size)
            rng = verify._rng(seed)
            np.testing.assert_array_equal(batched, [ref.unit(rng, size) for _ in range(13)])


@pytest.mark.parametrize("solver", list(SOLVERS))
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_oracles_match_loop_reference(solver, seed):
    row = SOLVERS[solver]
    spec, sol, x0 = solved(solver, seed)
    J = equilibrium_costs(spec, sol, x0)

    for player in range(spec.n_players):
        batched = verify.deviation_gap(spec, sol, row.pattern, player, samples=20,
                                       seed=seed + player, x0=x0)
        loop = ref.deviation_gap(spec, sol, player, 20, 1e-3, seed + player, x0)
        assert abs(batched - loop) <= GAP_ATOL * (1 + abs(J[player])), (player, batched, loop)

    if row.stackelberg:
        batched = verify.leader_gap(spec, sol, row.pattern, samples=20, seed=seed, x0=x0)
        if row.pattern == OPEN_LOOP:
            loop = ref.leader_gap_open_loop(spec, sol, 20, 1e-3, seed)
        else:
            loop = ref.leader_gap_feedback(spec, sol, 20, 1e-3, seed, x0)
        assert abs(batched - loop) <= GAP_ATOL * (1 + abs(J[0])), (batched, loop)

    certified = verify.stationarity(spec, sol, row.pattern, x0=x0)
    loop = ref.stationarity(spec, sol, 1e-5, x0)
    assert set(certified) == set(loop)
    for i in loop:
        assert abs(certified[i] - loop[i]) <= STATIONARITY_ATOL, (i, certified[i], loop[i])


def test_the_certificate_sees_a_shifted_feedback_law():
    # A corrupted offset of the second player at one stage must show in
    # that player's residual as in the loop reference.  The leader's
    # residual is taken at the followers' laws, the loop's at their stage
    # reactions, and a corrupted follower law parts the two; so its
    # verdict is compared.
    spec, sol, x0 = solved("feedback-stackelberg", 17)
    g = sol.laws[1].g.copy()
    g[1] -= 0.05
    bad = type(sol)(spec=spec, laws=(sol.laws[0], AffineLaw(sol.laws[1].G, g)) + sol.laws[2:],
                    Z=sol.Z, zeta=sol.zeta, n_const=sol.n_const, reactions=sol.reactions)
    certified = verify.stationarity(spec, bad, verify.FEEDBACK, x0=x0)
    loop = ref.stationarity(spec, bad, 1e-5, x0)
    assert certified[1] > 1e-3
    for i in loop:
        if i:
            assert abs(certified[i] - loop[i]) <= STATIONARITY_ATOL
        assert (certified[i] > verify.STATIONARITY_TOL) == (loop[i] > verify.STATIONARITY_TOL)


# ---------------------------------------------------------------------------
# Rollout calls do not grow with the sample count


def count_rollouts(monkeypatch):
    """Count the state loops: calls into ``game._walk``, the one loop of
    ``rollout``, of the sampling oracles and of every open-loop path, from
    anywhere in the library."""
    calls = []
    original = game._walk

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dyngame" or name.startswith("dyngame.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("solver", ["feedback-nash", "feedback-stackelberg",
                                    "openloop-nash", "openloop-stackelberg"])
def test_rollout_calls_do_not_grow_with_samples(solver, monkeypatch):
    row = SOLVERS[solver]
    spec, sol, x0 = solved(solver, 42)
    calls = count_rollouts(monkeypatch)
    player = spec.n_players - 1
    counts = {}
    for samples in (5, 50):
        calls.clear()
        verify.deviation_gap(spec, sol, row.pattern, player, samples=samples, x0=x0)
        counts[samples] = len(calls)
    assert counts[5] == counts[50] == 1, counts  # the base path is sample 0
    if row.stackelberg:
        for samples in (5, 50):
            calls.clear()
            verify.leader_gap(spec, sol, row.pattern, samples=samples, x0=x0)
            counts[samples] = len(calls)
        assert counts[5] == counts[50] == 1, counts


# ---------------------------------------------------------------------------
# The feedback certificate at the horizon where finite differences chunked


@pytest.mark.parametrize("solver", ["feedback-nash", "feedback-stackelberg"])
def test_feedback_certificate_at_forty_stages(solver):
    # At T = 40 the finite differences rolled 2*T*4 probe samples times T
    # stages, more than they held at once.  The certificate makes one pass
    # and agrees with their batched form, on the solution and on a law
    # moved by 1e-3 at one late stage.
    T = 40
    spec = random_game(11, n_players=3, state_dim=2, control_dims=[1, 2, 1], horizon=T,
                       time_varying=True)
    x0 = random_x0(11, spec)
    sol = SOLVERS[solver].solve(spec, x0)
    certified = verify.stationarity(spec, sol, verify.FEEDBACK, x0=x0)
    assert max(certified.values()) < 1e-12
    assert max(ref.batched_stationarity(spec, sol, 1e-5, x0).values()) < 1e-6
    laws = list(sol.laws)
    g = laws[2].g.copy()
    g[30] += 1e-3
    laws[2] = AffineLaw(laws[2].G, g)
    bad = replace(sol, laws=tuple(laws))
    certified = verify.stationarity(spec, bad, verify.FEEDBACK, x0=x0)
    batched = ref.batched_stationarity(spec, bad, 1e-5, x0)
    assert certified[2] > 1e-4
    # a Stackelberg leader's residuals part, as in the test above
    for i in range(1 if "stackelberg" in solver else 0, 3):
        assert abs(certified[i] - batched[i]) <= 1e-8, (i, certified[i], batched[i])
