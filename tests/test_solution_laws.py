"""Every solution stores its decision rules in one format: a tuple of one
:class:`AffineLaw` per player, gains (T, m_i, p) and offsets (T, m_i),
held as a dataclass field so that reading it rebuilds nothing."""

import dataclasses

import numpy as np
import pytest

from dyngame.game import AffineLaw, rollout
from dyngame.solvers import OPEN_LOOP, SOLVERS

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

    if row.pattern == OPEN_LOOP:
        # path laws reproduce the equilibrium trajectory from its x0
        traj = rollout(spec, sol.laws, x0)
        assert np.abs(traj.states - sol.trajectory.states).max() <= 1e-12
        for u, v in zip(traj.controls, sol.trajectory.controls):
            assert np.abs(u - v).max() <= 1e-12
        np.testing.assert_allclose(traj.total_costs, sol.trajectory.total_costs,
                                   rtol=1e-12, atol=1e-12)
