"""The table of solvers: one row per solver the library offers.

A row gives the solver's entry point as ``solve(spec, x0)`` (feedback
solvers ignore ``x0``), the exact type of the solution it returns, its
information pattern, and whether player 0 leads.  The command line and
the verification oracles take every fact about a solver from this table;
a new solver is registered by adding one row.

Each entry point looks its solver up as a module attribute when called,
so a function patched onto the solver module is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import feedback_nash, feedback_stackelberg, lqr, openloop_nash, openloop_stackelberg
from .errors import InvalidGameError

OPEN_LOOP = "open-loop"
FEEDBACK = "feedback"


@dataclass(frozen=True)
class Solver:
    solve: Callable        # (spec, x0) -> solution
    solution: type         # exact type returned by ``solve``
    pattern: str           # FEEDBACK or OPEN_LOOP
    stackelberg: bool      # player 0 leads
    # (view, solution) -> {name: gaps}: the tail games from stages 1..T-1
    # re-solved over ``view``, the solution's checked view, as the largest
    # gap to the solution at each stage t over the tails that include it,
    # (T-1,).  No recursion reads its initial state, so one re-solve of the
    # whole game holds every tail's maps from its start on.  A feedback
    # tail's laws are those maps, which shows reproduction, not subgame
    # perfection; an open-loop tail replays them from the solution's state
    # at its start.  Open-loop Stackelberg's "reset" tails start with zero
    # multipliers.
    tails: Callable


def _feedback_tails(module):
    def tails(view, sol):
        laws = np.concatenate([np.concatenate([law.G, law.g[..., None]], axis=-1)
                               for law in sol.laws], axis=1)
        return {"tail": np.abs(-module.sweep(view)[0][1:] - laws[1:]).max(axis=(1, 2))}
    return tails


def _replay(sol, x, step):
    """The gaps of the open-loop tails from the states x, the tail from s
    from x[s-1], where ``step(t, x)`` gives the controls at t and the
    states at t+1 with the products of the sweep's own forward pass."""
    controls = np.concatenate(sol.trajectory.controls, axis=-1)
    gaps = np.empty(len(controls) - 1)
    for t in range(1, len(controls)):
        u, x[:t] = step(t, x[:t])
        gaps[t - 1] = np.abs(u - controls[t]).max()
    return gaps


def _openloop_nash_tails(view, sol):
    # Each state a (1, p) row, as on the sweep's one-sample path: one
    # product of many rows would move the bits.
    Phi, phi, G, g = openloop_nash.sweep(view, sol.x0, view.s[None])[3:]
    return {"tail": _replay(sol, sol.trajectory.states[1:-1, None].copy(),
                            lambda t, x: (x @ G[t].T + g[0, t], x @ Phi[t].T + phi[0, t]))}


def _openloop_stackelberg_tails(view, sol):
    d = sol.K.shape[1]
    Xi, P = openloop_stackelberg.sweep(view, np.hstack([sol.x0, sol.initial_mu.ravel()]))[5:]
    x = sol.trajectory.states[1:-1]
    mu = sol.mu[:, 1:-1].swapaxes(0, 1).reshape(len(x), -1)

    def step(t, z):
        return (np.einsum("ij,lj->li", P[t, :, :d], z) + P[t, :, d],
                (Xi[t, :, :d] @ z[..., None])[..., 0] + Xi[t, :, d])

    return {"tail": _replay(sol, np.hstack([x, mu]), step),
            "reset": _replay(sol, np.hstack([x, np.zeros_like(mu)]), step)}


SOLVERS: dict[str, Solver] = {
    "lqr": Solver(lambda spec, x0: lqr.solve_control(spec),
                  lqr.ControlSolution, FEEDBACK, False, _feedback_tails(feedback_nash)),
    "feedback-nash": Solver(lambda spec, x0: feedback_nash.solve(spec),
                            feedback_nash.FeedbackNashSolution, FEEDBACK, False,
                            _feedback_tails(feedback_nash)),
    "feedback-stackelberg": Solver(lambda spec, x0: feedback_stackelberg.solve(spec),
                                   feedback_stackelberg.FeedbackStackelbergSolution,
                                   FEEDBACK, True, _feedback_tails(feedback_stackelberg)),
    "openloop-nash": Solver(lambda spec, x0: openloop_nash.solve(spec, x0),
                            openloop_nash.OpenLoopNashSolution, OPEN_LOOP, False,
                            _openloop_nash_tails),
    "openloop-stackelberg": Solver(lambda spec, x0: openloop_stackelberg.solve(spec, x0),
                                   openloop_stackelberg.OpenLoopStackelbergSolution,
                                   OPEN_LOOP, True, _openloop_stackelberg_tails),
}


def solver_of(solution) -> Solver:
    """The row whose solver returns solutions of exactly this type."""
    for row in SOLVERS.values():
        if type(solution) is row.solution:
            return row
    raise InvalidGameError(f"no solver returns a {type(solution).__name__}")
