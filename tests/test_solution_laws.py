"""Every solution stores its decision rules in one format: a tuple of one
:class:`AffineLaw` per player, gains (T, m_i, p) and offsets (T, m_i),
held as a dataclass field so that reading it rebuilds nothing."""

import dataclasses

import numpy as np
import pytest

from dyngame.game import AffineLaw, rollout
from dyngame.solvers import SOLVERS

from conftest import random_game, random_x0


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solution_holds_one_law_sequence_per_player(solver):
    row = SOLVERS[solver]
    if solver == "lqr":
        spec = random_game(71, n_players=1, state_dim=3, horizon=4, control_dims=[2],
                           targets=False, time_varying=True)
    else:
        spec = random_game(71, n_players=3, state_dim=3, horizon=4, control_dims=[1, 2, 1],
                           time_varying=True)
    x0 = random_x0(71, spec)
    sol = row.solve(spec, x0)
    T, p = spec.horizon, spec.state_dim

    assert "laws" in {f.name for f in dataclasses.fields(sol)}
    assert sol.laws is sol.laws
    assert isinstance(sol.laws, tuple) and len(sol.laws) == spec.n_players
    for law, m in zip(sol.laws, spec.control_dims):
        assert isinstance(law, AffineLaw)
        assert law.G.shape == (T, m, p) and law.g.shape == (T, m)


@pytest.mark.parametrize("solver, shape", [
    ("openloop-nash", (3, 3, [1, 2, 1], 4)),
    ("openloop-nash", (2, 3, [2, 2], 200)),
    ("openloop-stackelberg", (3, 3, [1, 2, 1], 4)),
    ("openloop-stackelberg", (2, 3, [2, 2], 200)),
], ids=["openloop-nash-T4", "openloop-nash-2x3x2-T200", "openloop-stackelberg-T4",
        "openloop-stackelberg-2x3x2-T200"])
def test_path_laws_reproduce_the_equilibrium_trajectory(solver, shape):
    # Open-loop Nash plays its path laws from x0 through rollout's own state
    # loop, so rollout reproduces its trajectory bit for bit, costs too, at
    # any horizon.  Open-loop Stackelberg plays its path laws through the
    # same loop, on the extended state (x, mu); its laws on x alone, with
    # the multiplier terms folded into the offsets, meet that path to a
    # few ulps of the state's size.
    n, p, dims, T = shape
    spec = random_game(71, n_players=n, state_dim=p, horizon=T, control_dims=dims,
                       time_varying=True)
    x0 = random_x0(71, spec)
    sol = SOLVERS[solver].solve(spec, x0)
    traj = rollout(spec, sol.laws, x0)
    if solver == "openloop-nash":
        for name in ("states", "stage_costs", "total_costs"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(sol.trajectory, name))
        for u, v in zip(traj.controls, sol.trajectory.controls, strict=True):
            np.testing.assert_array_equal(u, v)
        return
    bound = 1e-14 * (1 + np.abs(sol.trajectory.states).max())
    assert np.abs(traj.states - sol.trajectory.states).max() <= bound
    for u, v in zip(traj.controls, sol.trajectory.controls):
        assert np.abs(u - v).max() <= bound
    np.testing.assert_allclose(traj.total_costs, sol.trajectory.total_costs,
                               rtol=1e-12, atol=1e-12)
