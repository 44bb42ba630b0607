"""Print a sha256 of every solver's outputs on a fixed set of seeded games.

Run it on two versions of the library and compare the outputs line by
line: equal lines mean bit-identical results.

    python3 tests/output_hashes.py > hashes.txt

Each line is ``<case> <solver> <kind> <sha256>``, one per kind of output:
``solution``, the solution's arrays; ``consistency``, its
``verify.time_consistency`` entry; ``report``, the ``run_verification`` report
(``as_dict``, floats by their exact repr); or, for a refused solve, one
``refusal`` line, the error's type, message, ``context`` and
``cond_estimate``; or ``validation``, the messages of ``validate`` at
every tolerance, in both mode orders on one game object.  Each hash covers
the warnings its step raised too.  The cases are:

- ``seed<s>-broadcast`` and ``seed<s>-varying``: 60 seeds of
  ``conftest.random_game`` with constant and with time-varying stages,
  of the size each solver needs (one player without targets for
  ``lqr``, else two or three players);
- ``degenerate<s>-<what>``: small games that skip validation and reach a
  zero stage system or a NaN drift, so that every solver refuses them;
- ``long<s>``: time-varying games of (players, state, control, horizon)
  (3, 10, 3, 200) for s = 0-2 and (2, 3, 2, 200) for s = 3-5, the shapes
  of the ``solve-long`` benchmark (one player for ``lqr``), solution and
  consistency only, whose sweeps fill and test their capped stacks;
- ``malformed<s>``: the 120 malformed games of ``test_validation``, one
  ``validation`` line per mode order, ``plain-first`` or ``leader-first``.
  A game checks itself in both modes when it is built and tests any other
  tolerance afresh, so the two orders must hash alike; both stay so that
  any outcome that came to depend on what ran before would show, and so
  that the lines compare with versions that kept outcomes per tolerance
  and added leader mode's tests to plain validation's;
- ``reordered<s>-broadcast`` and ``reordered<s>-varying``: the two- and
  three-player games of ``seed<s>`` with their players in reversed order
  (``reorder_players``), the lines of both Stackelberg solvers and one
  ``validation`` line, and ``reordered-malformed<s>``, one ``validation``
  line for each multi-player game of ``malformed<s>`` with no wrong shape
  or count, which ``reorder_players`` refuses;
- ``leadercost<s>-broadcast`` and ``leadercost<s>-varying``: the games of
  ``seed<s>`` fit for ``openloop-stackelberg``, one ``cost`` line, the
  ``verify.leader_cost_open_loop`` of the solution's leader sequence and
  of a batch of 5 sequences perturbed from it by a seeded draw.
"""

import hashlib
import sys
import warnings
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dyngame import (feedback_nash, feedback_stackelberg, lqr, openloop_nash,  # noqa: E402
                     openloop_stackelberg)
from dyngame.errors import DynGameError  # noqa: E402
from dyngame.game import StageArrays, reorder_players, validate  # noqa: E402
from dyngame.solvers import SOLVERS  # noqa: E402
from dyngame.verify import leader_cost_open_loop, run_verification, time_consistency  # noqa: E402

from conftest import arrays, random_game, random_x0  # noqa: E402
from test_validation import FAMILY, malformed_game  # noqa: E402

SWEEPS = (lqr, feedback_nash, feedback_stackelberg, openloop_nash, openloop_stackelberg)


def players(solver, seed):
    return 1 if solver == "lqr" else 2 + seed % 2


def digest(run) -> str:
    """The sha256 of what ``run()`` returns, or of its refusal, with the
    warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run()
        except DynGameError as exc:
            out = (type(exc).__name__, str(exc), getattr(exc, "context", None),
                   getattr(exc, "cond_estimate", None))
    warned = [f"{w.category.__name__}: {w.message}" for w in caught]
    return hashlib.sha256(repr((out, warned)).encode()).hexdigest()


def print_outputs(case, name, spec, x0, verify=True) -> None:
    """Print the lines of one case: the solution's arrays, its
    time-consistency entry and its verification report, or its refusal."""
    row = SOLVERS[name]
    solved = []

    def solution():
        solved.append(row.solve(spec, x0))
        return arrays(solved[0])

    first = digest(solution)
    if not solved:
        print(f"{case} {name} refusal {first}")
        return
    sol = solved[0]
    print(f"{case} {name} solution {first}")
    consistency = digest(lambda: time_consistency(spec, sol, row.pattern))
    print(f"{case} {name} consistency {consistency}")
    if verify:
        report = digest(lambda: run_verification(spec, sol, row.pattern, name, x0=x0, samples=20,
                                                 leader_samples=10).as_dict())
        print(f"{case} {name} report {report}")


def leader_costs(seed, spec, x0) -> str:
    """The digest of the open-loop leader cost of the solution's leader
    sequence and of 5 seeded perturbations of it, in one batch."""
    def costs():
        u = SOLVERS["openloop-stackelberg"].solve(spec, x0).trajectory.controls[0]
        batch = u + 1e-3 * np.random.default_rng(seed).standard_normal((5, *u.shape))
        return leader_cost_open_loop(spec, u, x0), leader_cost_open_loop(spec, batch, x0).tolist()
    return digest(costs)


def validation(spec) -> str:
    """The digest of ``validate``'s messages at every tolerance and mode."""
    return digest(lambda: [validate(spec, tol=tol, for_stackelberg=leader).messages()
                           for tol in (1e-9, 1e-6, -1e-6) for leader in (False, True)])


def reversed_players(spec):
    return reorder_players(spec, range(spec.n_players)[::-1])


def degenerate(seed, n, what):
    """A time-varying scalar game of n players whose stage 3 is all zero
    weights and inputs, or has a NaN drift, and stage 1 the other."""
    spec = random_game(seed, n_players=n, state_dim=1, control_dims=[1] * n, horizon=5,
                       time_varying=True, targets=n > 1)
    stages = list(spec.stages)
    zero = np.zeros((1, 1))
    singular, nan = (3, 1) if what == "singular" else (1, 3)
    stages[singular] = replace(stages[singular], B=(zero,) * n,
                               R=tuple(tuple(zero for _ in range(n)) for _ in range(n)))
    stages[nan] = replace(stages[nan], s=np.array([np.nan]))
    return replace(spec, stages=tuple(stages)), random_x0(seed, spec)


def unchecked() -> ExitStack:
    """Every solver reads the unchecked view, so a degenerate game reaches
    its stage solves."""
    stack = ExitStack()
    for module in SWEEPS:
        stack.enter_context(mock.patch.object(module, "require_valid",
                                              lambda spec, **kw: StageArrays.of(spec)))
    return stack


def main() -> None:
    for seed in range(60):
        for kind in ("broadcast", "varying"):
            for name in SOLVERS:
                spec = random_game(seed, n_players=players(name, seed),
                                   time_varying=kind == "varying", targets=name != "lqr")
                x0 = random_x0(seed, spec)
                print_outputs(f"seed{seed}-{kind}", name, spec, x0)
    with unchecked():
        for seed in range(10):
            for what in ("singular", "nan"):
                for name in SOLVERS:
                    spec, x0 = degenerate(seed, players(name, seed), what)
                    print_outputs(f"degenerate{seed}-{what}", name, spec, x0, verify=False)
    for seed, (count, p, m) in enumerate([(3, 10, 3)] * 3 + [(2, 3, 2)] * 3):
        for name in SOLVERS:
            n = 1 if name == "lqr" else count
            spec = random_game(900 + seed, n_players=n, state_dim=p, control_dims=[m] * n,
                               horizon=200, time_varying=True, targets=name != "lqr")
            x0 = random_x0(seed, spec)
            print_outputs(f"long{seed}", name, spec, x0, verify=False)
    for seed in FAMILY:
        spec = malformed_game(seed)
        for first in (False, True):
            game = replace(spec)  # a new object, built and checked afresh
            messages = digest(lambda: [validate(game, tol=tol, for_stackelberg=leader).messages()
                                       for tol in (1e-9, 1e-6, -1e-6) for leader in (first, not first)])
            print(f"malformed{seed} {'leader' if first else 'plain'}-first validation {messages}")
    for seed in range(60):
        for kind in ("broadcast", "varying"):
            spec = random_game(seed, n_players=2 + seed % 2, time_varying=kind == "varying")
            game = reversed_players(spec)
            for name in ("feedback-stackelberg", "openloop-stackelberg"):
                print_outputs(f"reordered{seed}-{kind}", name, game, random_x0(seed, spec))
            print(f"reordered{seed}-{kind} validation {validation(game)}")
    for seed in FAMILY:
        spec = malformed_game(seed)
        if spec.n_players > 1 and not any(": expected " in m for m in validate(spec).messages()):
            print(f"reordered-malformed{seed} validation {validation(reversed_players(spec))}")
    for seed in range(60):
        for kind in ("broadcast", "varying"):
            spec = random_game(seed, n_players=players("openloop-stackelberg", seed),
                               time_varying=kind == "varying")
            cost = leader_costs(seed, spec, random_x0(seed, spec))
            print(f"leadercost{seed}-{kind} openloop-stackelberg cost {cost}")


if __name__ == "__main__":
    main()
