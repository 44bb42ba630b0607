"""Print a sha256 of every solver's outputs on a fixed set of seeded games.

Run it on two versions of the library and compare the outputs line by
line: equal lines mean bit-identical results.

    python3 tests/output_hashes.py > hashes.txt

``--save FILE`` also pickles what each line hashes, its ``(out, warned)``;
``--against FILE``, given such a file of another version, prints after the
hashes, for each line whose outcome differs, the largest absolute and
relative difference of its floats, or ``text differs`` where anything but
floats differs, then the count and the largest differences per kind:

    python3 tests/output_hashes.py --save old.pickle > old.txt   # one version
    python3 tests/output_hashes.py --against old.pickle          # the other

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

import argparse
import hashlib
import pickle
import sys
import warnings
from contextlib import ExitStack
from dataclasses import fields, is_dataclass, replace
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


def outcome(run):
    """What ``run()`` returns, or its refusal, with the warnings it raised:
    the ``(out, warned)`` a line hashes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = run()
        except DynGameError as exc:
            out = (type(exc).__name__, str(exc), getattr(exc, "context", None),
                   getattr(exc, "cond_estimate", None))
    return out, [f"{w.category.__name__}: {w.message}" for w in caught]


def emit(line, result) -> None:
    """Print ``line`` with the sha256 of ``result``, an :func:`outcome`,
    and hand both to the ``--save`` and ``--against`` options."""
    print(line, hashlib.sha256(repr(result).encode()).hexdigest())
    for keep in KEEPERS:
        keep(line, result)


#: What each printed line is handed to: ``--save`` and ``--against`` add one each
KEEPERS = []


def print_outputs(case, name, spec, x0, verify=True) -> None:
    """Print the lines of one case: the solution's arrays, its
    time-consistency entry and its verification report, or its refusal."""
    row = SOLVERS[name]
    solved = []

    def solution():
        solved.append(row.solve(spec, x0))
        return arrays(solved[0])

    first = outcome(solution)
    emit(f"{case} {name} {'solution' if solved else 'refusal'}", first)
    if not solved:
        return
    sol = solved[0]
    emit(f"{case} {name} consistency", outcome(lambda: time_consistency(spec, sol, row.pattern)))
    if verify:
        emit(f"{case} {name} report",
             outcome(lambda: run_verification(spec, sol, row.pattern, name, x0=x0, samples=20,
                                              leader_samples=10).as_dict()))


def leader_costs(seed, spec, x0):
    """The outcome of the open-loop leader cost of the solution's leader
    sequence and of 5 seeded perturbations of it, in one batch."""
    def costs():
        u = SOLVERS["openloop-stackelberg"].solve(spec, x0).trajectory.controls[0]
        batch = u + 1e-3 * np.random.default_rng(seed).standard_normal((5, *u.shape))
        return leader_cost_open_loop(spec, u, x0), leader_cost_open_loop(spec, batch, x0).tolist()
    return outcome(costs)


def validation(spec):
    """The outcome of ``validate``'s messages at every tolerance and mode."""
    return outcome(lambda: [validate(spec, tol=tol, for_stackelberg=leader).messages()
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


def floats_apart(out, floats):
    """The structure of ``out`` with each float, and each array's bytes read
    as float64, moved to ``floats`` and left as a placeholder."""
    if isinstance(out, float):
        floats.append(np.array([out]))
        return float
    if isinstance(out, bytes) and len(out) % 8 == 0:
        floats.append(np.frombuffer(out, dtype=float))
        return bytes
    if isinstance(out, dict):
        return {key: floats_apart(value, floats) for key, value in out.items()}
    if isinstance(out, (tuple, list)):
        return type(out)(floats_apart(value, floats) for value in out)
    if is_dataclass(out):
        return type(out).__name__, {f.name: floats_apart(getattr(out, f.name), floats)
                                    for f in fields(out)}
    return out


def difference(old, new):
    """The largest absolute difference of the floats of two outcomes of one
    line, and the largest relative one, each array's (or lone float's)
    difference over its largest entry; None when anything else in them
    differs.  NaN and infinities count as equal where both hold the same."""
    a, b = [], []
    if floats_apart(old, a) != floats_apart(new, b) or [len(x) for x in a] != [len(x) for x in b]:
        return None
    gap, rel = 0.0, 0.0
    for x, y in zip(a, b):
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        if not (same | (np.isfinite(x) & np.isfinite(y))).all():
            return None
        apart = np.where(same, 0.0, np.abs(x - y)).max(initial=0.0)
        size = max(np.abs(x[np.isfinite(x)]).max(initial=0.0), np.abs(y[np.isfinite(y)]).max(initial=0.0))
        gap, rel = max(gap, apart), max(rel, apart / size if apart else 0.0)
    return float(gap), float(rel)


class Against:
    """The ``--against`` comparison: each line whose outcome differs from the
    saved one, a line the saved file lacks counting as text, and at the end
    the count and largest differences per kind."""

    def __init__(self, path):
        self.saved, self.moved = {}, {}  # moved: per kind, (line, difference)
        with open(path, "rb") as f:
            while True:
                try:
                    line, result = pickle.load(f)
                except EOFError:
                    break
                self.saved[line] = result

    def __call__(self, line, result):
        old = self.saved.get(line)
        if repr(old) != repr(result):
            kind = " ".join(line.split()[1:])  # the solver and kind, or the kind alone
            self.moved.setdefault(kind, []).append((line, difference(old, result)))

    def summary(self) -> None:
        print("--- lines that differ from the saved ones")
        for moved in self.moved.values():
            for line, gap in moved:
                print(f"{line}: " + ("text differs" if gap is None else "abs %.3g rel %.3g" % gap))
        for kind, moved in self.moved.items():
            gaps = [gap for _, gap in moved if gap is not None]
            largest = " largest abs %.3g rel %.3g," % tuple(map(max, zip(*gaps))) if gaps else ""
            print(f"{kind}: {len(moved)} lines,{largest} {len(moved) - len(gaps)} text differs")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="FILE", help="pickle each line's (out, warned) to FILE")
    parser.add_argument("--against", metavar="FILE",
                        help="compare each line's (out, warned) with those --save wrote to FILE")
    args = parser.parse_args(argv)
    against = Against(args.against) if args.against else None
    with ExitStack() as stack:
        if args.save:
            saved = stack.enter_context(open(args.save, "wb"))
            KEEPERS.append(lambda line, result: pickle.dump((line, result), saved))
        if against:
            KEEPERS.append(against)
        lines()
    if against:
        against.summary()


def lines() -> None:
    """Print every line of every case."""
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
            emit(f"malformed{seed} {'leader' if first else 'plain'}-first validation",
                 outcome(lambda: [validate(game, tol=tol, for_stackelberg=leader).messages()
                                  for tol in (1e-9, 1e-6, -1e-6) for leader in (first, not first)]))
    for seed in range(60):
        for kind in ("broadcast", "varying"):
            spec = random_game(seed, n_players=2 + seed % 2, time_varying=kind == "varying")
            game = reversed_players(spec)
            for name in ("feedback-stackelberg", "openloop-stackelberg"):
                print_outputs(f"reordered{seed}-{kind}", name, game, random_x0(seed, spec))
            emit(f"reordered{seed}-{kind} validation", validation(game))
    for seed in FAMILY:
        spec = malformed_game(seed)
        if spec.n_players > 1 and not any(": expected " in m for m in validate(spec).messages()):
            emit(f"reordered-malformed{seed} validation", validation(reversed_players(spec)))
    for seed in range(60):
        for kind in ("broadcast", "varying"):
            spec = random_game(seed, n_players=players("openloop-stackelberg", seed),
                               time_varying=kind == "varying")
            emit(f"leadercost{seed}-{kind} openloop-stackelberg cost",
                 leader_costs(seed, spec, random_x0(seed, spec)))


if __name__ == "__main__":
    main()
