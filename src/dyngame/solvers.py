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


SOLVERS: dict[str, Solver] = {
    "lqr": Solver(lambda spec, x0: lqr.solve_control(spec),
                  lqr.ControlSolution, FEEDBACK, False),
    "feedback-nash": Solver(lambda spec, x0: feedback_nash.solve(spec),
                            feedback_nash.FeedbackNashSolution, FEEDBACK, False),
    "feedback-stackelberg": Solver(lambda spec, x0: feedback_stackelberg.solve(spec),
                                   feedback_stackelberg.FeedbackStackelbergSolution,
                                   FEEDBACK, True),
    "openloop-nash": Solver(lambda spec, x0: openloop_nash.solve(spec, x0),
                            openloop_nash.OpenLoopNashSolution, OPEN_LOOP, False),
    "openloop-stackelberg": Solver(lambda spec, x0: openloop_stackelberg.solve(spec, x0),
                                   openloop_stackelberg.OpenLoopStackelbergSolution,
                                   OPEN_LOOP, True),
}


def solver_of(solution) -> Solver:
    """The row whose solver returns solutions of exactly this type."""
    for row in SOLVERS.values():
        if type(solution) is row.solution:
            return row
    raise InvalidGameError(f"no solver returns a {type(solution).__name__}")
