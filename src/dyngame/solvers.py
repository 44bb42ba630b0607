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
    # (view, solution, starts) -> {name: rows}: the tail games from the
    # ascending stages ``starts`` re-solved over ``view``, the solution's
    # checked view, one lane per start, by absolute stage from its start
    # on: laws [G | g] (L, T, M, p+1) or controls (L, T, M).  A feedback
    # tail meets the whole game's stage systems from its start on, so every
    # lane is one re-solve of the whole game, which shows reproduction, not
    # subgame perfection; an open-loop lane starts from the solution's
    # state there.  "tail" holds the re-solves; open-loop Stackelberg's
    # "reset" holds them with its multipliers set to zero.
    tails: Callable


def _feedback_tails(module):
    def tails(view, sol, starts):
        laws = -module.sweep(view)[0]
        return {"tail": np.broadcast_to(laws, (len(starts), *laws.shape))}
    return tails


def _openloop_nash_tails(view, sol, starts):
    x = sol.trajectory.states[starts]
    return {"tail": openloop_nash.sweep(view, starts, x, view.s[None])[0][:, 0]}


def _openloop_stackelberg_tails(view, sol, starts):
    # Lanes 2j and 2j+1 both start at starts[j]: one with the solution's
    # multipliers there, one with them reset to zero.
    x = sol.trajectory.states[starts]
    mu = sol.mu[:, starts].swapaxes(0, 1).reshape(len(starts), -1)
    z = np.stack([np.hstack([x, mu]), np.hstack([x, np.zeros_like(mu)])], axis=1)
    u = openloop_stackelberg.sweep(view, np.repeat(starts, 2), z.reshape(2 * len(starts), -1))[0]
    return {"tail": u[0::2], "reset": u[1::2]}


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
