"""Command-line front end.

Subcommands: ``validate``, ``solve``, ``simulate``, ``verify``,
``compare``.  Exit codes: 0 success, 1 validation or input failure, 2
numerical failure (a singular system, a non-finite result, or ``compare``
without a solution), 3 verification failure.  No output holds NaN or Infinity.

Logging level comes from the DYNGAME_LOG environment variable
(error | info | debug).  Reports are written as JSON (sorted keys, so
identical configuration and seed produce byte-identical files) or as
plot-ready CSV trajectories with one row per stage:
t, x[0..p), u^i[0..m_i) per player, then per-player stage cost.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__, verify
from .errors import DynGameError, InvalidGameError, SingularSystemError
from .game import (GameSpec, Trajectory, initial_state, reorder_players, require_valid,
                   rollout, validate)
from .gameio import GameFormatError, _require_numbers, load_game
from .solvers import OPEN_LOOP, SOLVERS

log = logging.getLogger("dyngame")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        # A result that overflows is refused as not finite when it is
        # written, so numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            return args.func(args)
    except InvalidGameError as exc:  # a GameFormatError too
        log.debug("invalid input: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SingularSystemError as exc:
        log.debug("solver failure: %s", exc)
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except DynGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _setup_logging():
    level = os.environ.get("DYNGAME_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors, its own subcommands' too, are input
    failures (exit 1) rather than exits with code 2; ``--help`` and
    ``--version`` still exit 0."""

    def error(self, message):
        raise InvalidGameError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyngame",
        description="Solve and verify finite-horizon affine-quadratic dynamic games.",
    )
    parser.add_argument("--version", action="version", version=f"dyngame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=True, x0=True, out=True, leader=True):
        p.add_argument("--game", required=True, help="path to the JSON game definition")
        if solver:
            p.add_argument("--solver", choices=tuple(SOLVERS), default="feedback-nash")
        if x0:
            p.add_argument("--x0", help="initial state: comma-separated values or a file path")
        if out:
            p.add_argument("--out", help="output file (default: stdout)")
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="symmetry/definiteness tolerance of this command's own "
                            "validation step; every solver re-checks the game at 1e-9")
        if leader:
            p.add_argument("--leader", type=int, default=None, metavar="I",
                           help="reorder players so 1-based player I moves first "
                                "(Stackelberg leadership is positional)")

    p_val = sub.add_parser("validate", help="check a game definition")
    add_common(p_val, solver=False, x0=False, out=False, leader=False)
    p_val.set_defaults(func=cmd_validate)

    p_solve = sub.add_parser("solve", help="compute an equilibrium")
    add_common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="solve and write the equilibrium trajectory")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="solve and run the verification oracles")
    add_common(p_ver)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--samples", type=int, default=100,
                       help="random deviations per player")
    p_ver.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="run all applicable solvers side by side")
    add_common(p_cmp, solver=False)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


#: What needs ``--x0`` when an open-loop solver is asked for.
_OPEN_LOOP_X0 = "for open-loop solvers: their controls are planned from it"


def _parse_x0(arg: str | None, spec: GameSpec, required: str | None) -> np.ndarray | None:
    """The initial state given by ``--x0``, or None when it is not given
    and not ``required``, which names what needs it."""
    if arg is None:
        if required:
            raise InvalidGameError(f"--x0 is required {required}")
        return None
    try:
        if os.path.exists(arg):
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
            try:
                values = json.loads(text)
            except json.JSONDecodeError:
                values = [float(v) for v in text.replace(",", " ").split()]
            _require_numbers(values, "--x0")
        else:
            values = [float(v) for v in arg.split(",") if v.strip()]
        x0 = np.asarray(values, dtype=float).ravel()
    except OSError as exc:
        raise InvalidGameError(f"cannot read --x0 file: {exc}") from exc
    except GameFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidGameError(f"--x0 must be a list of numbers: {exc}") from exc
    return initial_state(spec, x0)


def _load_and_validate(args) -> GameSpec:
    spec = load_game(args.game)
    leader = getattr(args, "leader", None)
    if leader is not None:
        if not 1 <= leader <= spec.n_players:
            raise InvalidGameError(
                f"--leader must be in 1..{spec.n_players}, got {leader}")
        order = [leader - 1] + [i for i in range(spec.n_players) if i != leader - 1]
        spec = reorder_players(spec, order)
    require_valid(spec, tol=args.tol)
    return spec


def _solve(spec: GameSpec, solver: str, x0: np.ndarray | None):
    """Run a solver; returns (solution, trajectory-or-None)."""
    row = SOLVERS[solver]
    sol = row.solve(spec, x0)
    if row.pattern == OPEN_LOOP:
        return sol, sol.trajectory
    return sol, (rollout(spec, sol.laws, x0) if x0 is not None else None)


def cmd_validate(args) -> int:
    spec = load_game(args.game)
    report = validate(spec, tol=args.tol)
    if report.ok:
        print(f"ok: {spec.n_players} players, state dimension {spec.state_dim}, "
              f"{spec.horizon} stages")
        return EXIT_OK
    for message in report.messages():
        print(f"violation: {message}")
    return EXIT_INVALID


def cmd_solve(args) -> int:
    spec = _load_and_validate(args)
    x0 = _parse_x0(args.x0, spec, _OPEN_LOOP_X0 if SOLVERS[args.solver].pattern == OPEN_LOOP
                   else None)
    sol, traj = _solve(spec, args.solver, x0)

    if args.format == "csv":
        if traj is None:
            raise InvalidGameError("csv output needs a trajectory; pass --x0")
        _write(args.out, _trajectory_csv(spec, traj))
        return EXIT_OK

    doc = {"solver": args.solver, "laws": _laws_doc(sol.laws)}
    if traj is not None:
        doc["x0"] = x0.tolist()
        doc["trajectory"] = _trajectory_doc(spec, traj)
    _write(args.out, _dumps(doc))
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_and_validate(args)
    x0 = _parse_x0(args.x0, spec, "to simulate: the trajectory starts from it")
    _, traj = _solve(spec, args.solver, x0)
    out = (_trajectory_csv(spec, traj) if args.format == "csv"
           else _dumps({"solver": args.solver, "x0": x0.tolist(),
                        "trajectory": _trajectory_doc(spec, traj)}))
    _write(args.out, out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _load_and_validate(args)
    pattern = SOLVERS[args.solver].pattern
    x0 = _parse_x0(args.x0, spec, _OPEN_LOOP_X0 if pattern == OPEN_LOOP else None)
    if x0 is None:
        x0 = np.ones(spec.state_dim)
        log.info("no --x0 given; verifying feedback solution from all-ones state")
    sol, _ = _solve(spec, args.solver, x0)
    report = verify.run_verification(
        spec, sol, pattern, solver_name=args.solver, x0=x0,
        samples=args.samples, seed=args.seed)
    _write(args.out, _dumps(report.as_dict()))
    if not report.passed:
        for failure in report.failures:
            print(f"verification failure: {failure}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_compare(args) -> int:
    spec = _load_and_validate(args)
    x0 = _parse_x0(args.x0, spec, "to compare: every solver's trajectory starts from it")

    rows = {}
    skipped = {}
    # Nash columns first, then Stackelberg.
    for name in sorted(SOLVERS, key=lambda name: SOLVERS[name].stackelberg):
        try:
            rows[name] = _finite(_solve(spec, name, x0)[1])
        except InvalidGameError as exc:
            # A solver whose own validation gate is stricter than the CLI's
            # (feedback Stackelberg needs PSD leader cross weights) is
            # listed with the violations; one whose game class excludes
            # this game (lqr on several players or with cost targets,
            # Stackelberg on one player) is left out.
            if exc.violations:
                skipped[name] = "; ".join(exc.violations)
        except SingularSystemError as exc:
            skipped[name] = str(exc)

    if args.out:
        doc = {
            "x0": x0.tolist(),
            "results": {
                name: {"total_costs": traj.total_costs.tolist(),
                       "controls": [u.tolist() for u in traj.controls]}
                for name, traj in rows.items()
            },
            "skipped": skipped,
        }
        _write(args.out, _dumps(doc))
    _print_comparison(spec, rows)
    for name, reason in skipped.items():
        print(f"skipped {name}: {reason}")
    return EXIT_OK if rows else EXIT_SOLVER


def _print_comparison(spec, rows):
    names = list(rows)
    if not names:
        print("no solver produced a solution")
        return
    header = "player".ljust(10) + "".join(name.rjust(24) for name in names)
    print("total costs")
    print(header)
    for i in range(spec.n_players):
        label = spec.players[i].name or f"P{i + 1}"
        line = label.ljust(10)
        for name in names:
            line += f"{rows[name].total_costs[i]:24.12g}"
        print(line)
    print()
    print("controls by stage")
    for t in range(spec.horizon):
        for i in range(spec.n_players):
            label = f"t={t} u^{i + 1}"
            line = label.ljust(10)
            for name in names:
                vals = ",".join(f"{v:.6g}" for v in rows[name].controls[i][t])
                line += vals.rjust(24)
            print(line)


# ---------------------------------------------------------------------------
# Serialization helpers


NOT_FINITE = "the result is not finite (NaN or Infinity)"


def _finite(traj: Trajectory) -> Trajectory:
    """``traj``, refused as a numerical failure when a state, control or
    cost is not finite."""
    if not all(np.isfinite(a).all() for a in (traj.states, traj.stage_costs, *traj.controls)):
        raise SingularSystemError(NOT_FINITE)
    return traj


def _dumps(doc) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise SingularSystemError(NOT_FINITE) from exc


def _laws_doc(laws):
    """The per-player law sequences in the stage-major layout ``[t][i]``."""
    return [[{"G": law.G[t].tolist(), "g": law.g[t].tolist()} for law in laws]
            for t in range(len(laws[0].g))]


def _trajectory_doc(spec, traj: Trajectory):
    return {
        "states": traj.states.tolist(),
        "controls": [u.tolist() for u in traj.controls],
        "stage_costs": traj.stage_costs.tolist(),
        "total_costs": traj.total_costs.tolist(),
    }


def _trajectory_csv(spec, traj: Trajectory) -> str:
    _finite(traj)
    cols = ["t"]
    cols += [f"x{k}" for k in range(spec.state_dim)]
    for i in range(spec.n_players):
        cols += [f"u{i + 1}_{k}" for k in range(spec.control_dims[i])]
    cols += [f"cost{i + 1}" for i in range(spec.n_players)]
    lines = [",".join(cols)]
    for t in range(spec.horizon):
        row = [str(t)]
        row += [repr(float(v)) for v in traj.states[t]]
        for i in range(spec.n_players):
            row += [repr(float(v)) for v in traj.controls[i][t]]
        row += [repr(float(v)) for v in traj.stage_costs[:, t]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _write(path, text: str) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidGameError(f"cannot write --out file: {exc}") from exc
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
