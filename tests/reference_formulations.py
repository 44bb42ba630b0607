"""Per-sample loop formulations of the sampling oracles, kept to cross-check
the batched ones in :mod:`dyngame.verify`.

Each function here draws its random directions one sample at a time and
rolls out one trajectory, or sums one tail of stage costs, per sample or
finite-difference probe, exactly as the library did before its oracles ran
over a sample axis.  Costs come from :func:`dyngame.game.stage_cost`, stage
by stage, so they do not share the batched rollout's vectorised cost pass.
"""

import numpy as np

from dyngame import verify
from dyngame.game import AffineLaw, rollout, stage_cost
from dyngame.solvers import OPEN_LOOP, solver_of


def unit(rng, shape):
    d = rng.standard_normal(shape)
    norm = np.linalg.norm(d)
    return d if norm == 0 else d / norm


def sequence_perturbations(u, samples, magnitude, rng):
    scale = magnitude * max(1.0, np.linalg.norm(u))
    for _ in range(samples):
        yield u + scale * unit(rng, u.shape)


def law_perturbations(laws, samples, magnitude, rng):
    """Perturbations of one player's stage laws ``laws[t]``."""
    T = len(laws)
    m, p = laws[0].G.shape
    scale = magnitude * max(1.0, max(np.abs(l.G).max(initial=0.0) for l in laws))
    for _ in range(samples):
        flat = unit(rng, T * (m * p + m)) * scale
        dG = flat[:T * m * p].reshape(T, m, p)
        dg = flat[T * m * p:].reshape(T, m)
        yield [AffineLaw(l.G + dG[t], l.g + dg[t]) for t, l in enumerate(laws)]


def played_cost(spec, player, t, x, controls_at):
    """Player's cost of stages t..T-1 from pre-decision state x, with every
    player's stage-tau controls given by ``controls_at(tau, x_tau)``."""
    total = 0.0
    for tau in range(t, spec.horizon):
        st = spec.stages[tau]
        us = controls_at(tau, x)
        x_next = st.A @ x + st.s
        for j in range(spec.n_players):
            x_next = x_next + st.B[j] @ us[j]
        total += stage_cost(spec, player, tau, x_next, us)
        x = x_next
    return total


def tail_cost(spec, laws, t, x, player, stage_controls):
    return played_cost(spec, player, t, x, lambda tau, xx: stage_controls if tau == t
                       else [law(xx) for law in laws[tau]])


def stationarity(spec, sol, h, x0=None):
    stackelberg = solver_of(sol).stackelberg
    if solver_of(sol).pattern == OPEN_LOOP:
        return _stationarity_open_loop(spec, sol, h, stackelberg)
    return _stationarity_feedback(spec, sol, h, np.asarray(x0, dtype=float), stackelberg)


def _stationarity_open_loop(spec, sol, h, stackelberg):
    T, n = spec.horizon, spec.n_players
    controls = [u.copy() for u in sol.trajectory.controls]
    out = {}
    for i in range(n):
        if stackelberg and i == 0:
            def cost(u_flat):
                return verify.leader_cost_open_loop(
                    spec, u_flat.reshape(T, spec.control_dims[0]), sol.x0)
        else:
            def cost(u_flat, i=i):
                us = [controls[j] if j != i else u_flat.reshape(T, spec.control_dims[i])
                      for j in range(n)]
                return rollout(spec, us, sol.x0).total_costs[i]
        grad = verify.central_gradient(cost, controls[i].ravel(), h)
        out[i] = float(np.abs(grad).max(initial=0.0))
    return out


def _stationarity_feedback(spec, sol, h, x0, stackelberg):
    T, n = spec.horizon, spec.n_players
    laws = sol.laws
    states = rollout(spec, laws, x0).states
    out = {i: 0.0 for i in range(n)}
    for t in range(T):
        x = states[t]
        base = [laws[t][j](x) for j in range(n)]
        for i in range(n):
            if stackelberg and i == 0:
                def cost(u1, t=t, x=x):
                    us = [np.asarray(u1)] + sol.stage_reaction(t, x, u1)
                    return tail_cost(spec, laws, t, x, 0, us)
            else:
                def cost(ui, t=t, x=x, i=i, base=base):
                    us = [base[j] if j != i else np.asarray(ui) for j in range(n)]
                    return tail_cost(spec, laws, t, x, i, us)
            grad = verify.central_gradient(cost, base[i], h)
            out[i] = max(out[i], float(np.abs(grad).max(initial=0.0)))
    return out


def deviation_gap(spec, sol, player, samples, magnitude, seed, x0=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = np.inf
    if solver_of(sol).pattern == OPEN_LOOP:
        controls = sol.trajectory.controls
        base = sol.trajectory.total_costs[player]
        for dev in sequence_perturbations(controls[player], samples, magnitude, rng):
            us = [controls[j] if j != player else dev for j in range(spec.n_players)]
            worst = min(worst, rollout(spec, us, sol.x0).total_costs[player] - base)
        return float(worst)
    laws = sol.laws
    base = rollout(spec, laws, x0).total_costs[player]
    for dev in law_perturbations([l[player] for l in laws], samples, magnitude, rng):
        dev_laws = [row[:player] + [d] + row[player + 1:] for row, d in zip(laws, dev)]
        worst = min(worst, rollout(spec, dev_laws, x0).total_costs[player] - base)
    return float(worst)


def leader_cost_feedback(spec, sol, leader_laws, x0):
    """Leader's realized cost when it plays ``leader_laws`` and followers
    react stagewise through the solution's reaction maps."""
    def controls_at(t, x):
        u1 = leader_laws[t](x)
        return [u1] + sol.stage_reaction(t, x, u1)
    return played_cost(spec, 0, 0, np.asarray(x0, dtype=float), controls_at)


def leader_gap_feedback(spec, sol, samples, magnitude, seed, x0):
    rng = np.random.Generator(np.random.PCG64(seed))
    base_laws = [l[0] for l in sol.laws]
    base = leader_cost_feedback(spec, sol, base_laws, x0)
    worst = np.inf
    for dev in law_perturbations(base_laws, samples, magnitude, rng):
        worst = min(worst, leader_cost_feedback(spec, sol, dev, x0) - base)
    return float(worst)
