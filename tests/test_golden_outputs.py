"""Golden outputs of the command line for every solver on small games.

``golden/`` holds three committed games (1, 2 and 3 players, T = 3) and
``golden/expected.json``, the exit code and parsed JSON output of
``solve``, ``simulate`` and ``verify --seed 3`` (stdout) for each of the
five solvers, and of ``compare --out``, on each game.  Keys, strings,
ints, bools, nulls and failure lists must match exactly; floats match to
a relative 1e-12, so the test also holds on other BLAS builds.  Values
that are roundoff-sized also pass within an absolute floor.

Regenerate the expected file after an intended output change with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from dyngame import cli

from conftest import GOLDEN, GOLDEN_X0, strict_json

EXPECTED = GOLDEN / "expected.json"
COMMANDS = {"solve": [], "simulate": [], "verify": ["--seed", "3"]}
SOLVER_NAMES = ("lqr", "feedback-nash", "feedback-stackelberg",
                "openloop-nash", "openloop-stackelberg")
REL_TOL = 1e-12
ABS_FLOOR = 1e-12
# Finite-difference residuals, tail deviations and sampled cost gaps are
# differences of O(1) numbers, so their low digits are roundoff that
# another BLAS build changes; they get a floor far below their gates.
NOISE_FLOOR = 1e-9
NOISE_KEYS = {"stationarity", "deviation_gaps", "leader_gap", "tail_deviation"}


def run_case(key, out_dir):
    """Run one golden case; returns ``{"exit": code, "output": doc}``."""
    game, command, *solver = key.split("/")
    argv = [command, "--game", str(GOLDEN / f"{game}.json"), f"--x0={GOLDEN_X0[game]}"]
    out_path = None
    if command == "compare":
        out_path = Path(out_dir) / f"{game}-compare.json"
        argv += ["--out", str(out_path)]
    else:
        argv += ["--solver", solver[0]] + COMMANDS[command]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if out_path is not None:
        text = out_path.read_text(encoding="utf-8") if code == 0 else ""
    else:
        text = stdout.getvalue()
    return {"exit": code, "output": strict_json(text) if text else None}


def all_keys():
    keys = []
    for game in GOLDEN_X0:
        keys += [f"{game}/{command}/{solver}" for command in COMMANDS
                 for solver in SOLVER_NAMES]
        keys.append(f"{game}/compare")
    return keys


def assert_matches(actual, expected, path="$", floor=ABS_FLOOR):
    if isinstance(expected, float) or isinstance(actual, float):
        assert isinstance(actual, (int, float)) and not isinstance(actual, bool), path
        assert math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=floor), \
            f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and set(actual) == set(expected), path
        for k in expected:
            assert_matches(actual[k], expected[k], f"{path}.{k}",
                           NOISE_FLOOR if k in NOISE_KEYS else floor)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{k}]", floor)
    else:
        assert actual == expected and type(actual) is type(expected), \
            f"{path}: {actual!r} != {expected!r}"


def _expected_cases():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["cases"]


def test_golden_file_covers_every_case():
    assert sorted(_expected_cases()) == sorted(all_keys())


@pytest.mark.parametrize("key", all_keys())
def test_golden_output(key, tmp_path):
    assert_matches(run_case(key, tmp_path), _expected_cases()[key])


def test_solver_choices_are_the_table():
    from dyngame import solvers
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    choices = sub.choices["solve"]._option_string_actions["--solver"].choices
    assert tuple(choices) == tuple(solvers.SOLVERS) == SOLVER_NAMES


def test_table_entries_return_their_solution_type():
    import numpy as np

    from dyngame import solvers
    from dyngame.errors import InvalidGameError
    from dyngame.gameio import load_game

    solved = set()
    for game, x0 in GOLDEN_X0.items():
        spec = load_game(GOLDEN / f"{game}.json")
        for name, row in solvers.SOLVERS.items():
            try:
                sol = row.solve(spec, np.array([float(v) for v in x0.split(",")]))
            except InvalidGameError:
                continue  # the game is outside this solver's class
            assert type(sol) is row.solution, name
            solved.add(name)
    assert solved == set(solvers.SOLVERS)


def record():
    import tempfile
    cases = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for key in all_keys():
            cases[key] = run_case(key, out_dir)
    EXPECTED.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    record()
