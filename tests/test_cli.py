import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyngame import cli
from dyngame.game import constant_game
from dyngame.gameio import save_game

from conftest import GOLDEN, random_game, scalar_unit_lqr, scalar_unit_two_player, strict_json


@pytest.fixture
def unit_game_path(tmp_path):
    path = tmp_path / "unit2p.json"
    save_game(scalar_unit_two_player(), path)
    return str(path)


@pytest.fixture
def lqr_game_path(tmp_path):
    path = tmp_path / "lqr.json"
    save_game(scalar_unit_lqr(), path)
    return str(path)


def test_validate_ok(unit_game_path, capsys):
    assert cli.main(["validate", "--game", unit_game_path]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    spec = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[-1.0]]], R=[[[[1.0]]]], T=1)
    path = tmp_path / "bad.json"
    save_game(spec, path)
    assert cli.main(["validate", "--game", str(path)]) == 1
    assert "violation" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys, caplog):
    """A game-file error takes the one input-error branch: one ``error:``
    line, and at debug level the log record of any input error."""
    caplog.set_level(logging.DEBUG, logger="dyngame")
    assert cli.main(["validate", "--game", "/nonexistent/game.json"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: /: cannot read game file"), err
    assert [r.getMessage().split(": ")[0] for r in caplog.records] == ["invalid input"]


def test_malformed_json_is_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["validate", "--game", str(path)]) == 1


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "error: /: game file is not UTF-8: "),
    (b"[" * 100000 + b"]" * 100000, "error: /: malformed JSON: "),
], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_game_file_is_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "game.json"
    path.write_bytes(content)
    assert cli.main(["validate", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(message) and "Traceback" not in err, err


def test_nan_drift_is_input_error(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"horizon": 2, "state_dim": 2, "players": [{"control_dim": 1}], '
                    '"stage": {"A": [[1, 0], [0, 1]], "B": [[[1], [0]]], "s": [NaN, 0], '
                    '"Q": [[[1, 0], [0, 1]]], "R": [[[[1]]]]}}')
    out = tmp_path / "o.json"
    assert cli.main(["solve", "--game", str(path), "--x0", "1,1", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("player", [0, 1])
@pytest.mark.parametrize("command", ["validate", "solve", "verify", "compare"])
def test_boolean_control_dim_is_input_error(tmp_path, capsys, command, player):
    # JSON true is a Python int; a width of 1 (player 0) would even match
    # the shapes of its matrices.
    doc = json.loads((GOLDEN / "two_player.json").read_text())
    doc["players"][player]["control_dim"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    argv = [command, "--game", str(path)] + ([] if command == "validate" else ["--x0", "1,-0.5"])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"/players/{player}/control_dim: must be a positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, value, pointer, shown", [
    (("A", 0, 1), True, "A", "true"),           # numpy would read it as 1.0
    (("Q", 1, 0, 0), "0.5", "Q/1", '"0.5"'),    # numpy would parse it
    (("x_target", 0, 1), False, "x_target/0", "false"),
])
def test_boolean_or_string_matrix_entry_is_input_error(tmp_path, capsys, entry, value, pointer,
                                                       shown):
    doc = json.loads((GOLDEN / "two_player.json").read_text())
    target = doc["stages"][2]
    for k in entry[:-1]:
        target = target[k]
    target[entry[-1]] = value
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--game", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"/stages/2/{pointer}: entries must be numbers, got {shown}" in err
    assert "Traceback" not in err


def test_solve_feedback_nash_values(unit_game_path, tmp_path):
    out = tmp_path / "solution.json"
    code = cli.main(["solve", "--game", unit_game_path, "--solver", "feedback-nash",
                     "--x0", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    controls = doc["trajectory"]["controls"]
    assert controls[0][0][0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert controls[1][0][0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    costs = doc["trajectory"]["total_costs"]
    assert costs[0] == pytest.approx(1.0 / 9.0, abs=1e-12)


def test_solve_requires_x0_for_open_loop(unit_game_path):
    assert cli.main(["solve", "--game", unit_game_path,
                     "--solver", "openloop-nash"]) == 1


@pytest.mark.parametrize("command, needs", [
    ("simulate", "to simulate: the trajectory starts from it"),
    ("compare", "to compare: every solver's trajectory starts from it"),
])
def test_missing_x0_names_what_needs_it(command, needs, capsys):
    # simulate's default solver is feedback Nash, which solves without x0:
    # what needs x0 is the trajectory, not an open-loop solver
    assert cli.main([command, "--game", str(GOLDEN / "two_player.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --x0 is required {needs}\n"
    assert "open-loop" not in captured.err and captured.out == ""


def test_lqr_solver_requires_single_player(unit_game_path):
    assert cli.main(["solve", "--game", unit_game_path, "--solver", "lqr"]) == 1


def test_lqr_solve(lqr_game_path, tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--game", lqr_game_path, "--solver", "lqr",
                     "--x0", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["laws"][0][0]["G"][0][0] == pytest.approx(-0.5, abs=1e-12)


def test_simulate_csv_layout(unit_game_path, tmp_path):
    out = tmp_path / "traj.csv"
    assert cli.main(["simulate", "--game", unit_game_path,
                     "--solver", "openloop-nash", "--x0", "1",
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x0,u1_0,u2_0,cost1,cost2"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[2]) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_x0_from_file(unit_game_path, tmp_path):
    x0_path = tmp_path / "x0.json"
    x0_path.write_text("[1.0]")
    assert cli.main(["solve", "--game", unit_game_path,
                     "--solver", "openloop-nash", "--x0", str(x0_path),
                     "--out", str(tmp_path / "o.json")]) == 0


def test_x0_dimension_checked(unit_game_path):
    assert cli.main(["solve", "--game", unit_game_path,
                     "--solver", "openloop-nash", "--x0", "1,2"]) == 1


def test_solve_openloop_stackelberg_path_laws(tmp_path):
    from dyngame.game import AffineLaw, rollout
    spec = random_game(811, n_players=3, state_dim=2, horizon=4)
    path = tmp_path / "g3.json"
    save_game(spec, path)
    x0 = [0.7, -0.4]
    out = tmp_path / "ols.json"
    assert cli.main(["solve", "--game", str(path), "--solver", "openloop-stackelberg",
                     "--x0=" + ",".join(map(str, x0)), "--out", str(out)]) == 0
    doc = strict_json(out.read_text())
    # the JSON layout is stage-major, doc["laws"][t][i]
    laws = [AffineLaw(np.array([stage[i]["G"] for stage in doc["laws"]]),
                      np.array([stage[i]["g"] for stage in doc["laws"]]))
            for i in range(spec.n_players)]
    traj = rollout(spec, laws, np.array(x0))
    for i, u in enumerate(doc["trajectory"]["controls"]):
        assert np.abs(traj.controls[i] - np.array(u)).max() <= 1e-12


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-5"],
                                   ["--samples", str(10**20)], ["--samples", str(2**60)],
                                   ["--samples", str(10**14)]])
def test_verify_settings_without_evidence_exit_1(unit_game_path, tmp_path, capsys, flags):
    """The counts numpy cannot draw, 10**20 and 2**60, it refuses before it
    allocates anything; 10**14 it can shape, but its array is larger than
    the 128 TiB user address space, so the allocation fails before any
    memory is touched, whatever the overcommit setting."""
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--game", unit_game_path, "--solver", "feedback-nash",
                     "--x0", "1", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "--samples", "abc"], "error: argument --samples: invalid int value: 'abc'"),
    (["verify", "--bogus"], "error: unrecognized arguments: --bogus"),
    (["solve", "--solver", "nope"], "error: argument --solver: invalid choice: 'nope'"),
    (["verify", "--fd-step", "1e-5"], "error: unrecognized arguments: --fd-step 1e-5"),
    (["verify", "--seed"], "error: argument --seed: expected one argument"),
    (["solve", "--tol", "1e-6"], "error: unrecognized arguments: --tol 1e-6"),
])
def test_usage_errors_exit_1_with_one_line(unit_game_path, tmp_path, capsys, argv, message):
    """A command line argparse refuses is an input failure (exit 1), not
    the numerical failure of exit 2, and reaches stderr as one line."""
    out = tmp_path / "r.json"
    command, *rest = argv
    assert cli.main([command, "--game", unit_game_path, "--x0", "1", *rest,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert not out.exists()


def test_a_missing_command_exits_1(capsys):
    assert cli.main([]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the following arguments are required: command"]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["verify", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out


def test_a_usage_error_exits_1_from_the_command(tmp_path):
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1]), "PATH": ""}
    done = subprocess.run([sys.executable, "-m", "dyngame.cli", "verify", "--game",
                           str(GOLDEN / "two_player.json"), "--samples", "abc"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: argument --samples: invalid int value: 'abc'"]


def corrupt_on_solve(monkeypatch, solver, size=1e-6):
    """Make ``solver`` return its solution with the last player's laws
    (feedback) or controls (open loop, path kept) moved by ``size``."""
    import importlib
    from dataclasses import replace

    from dyngame.game import AffineLaw, Trajectory
    from dyngame.solvers import FEEDBACK, SOLVERS

    mod = importlib.import_module("dyngame." + solver.replace("-", "_"))
    real = mod.solve

    def corrupted(*args, **kwargs):
        sol = real(*args, **kwargs)
        if SOLVERS[solver].pattern == FEEDBACK:
            laws = list(sol.laws)
            laws[-1] = AffineLaw(laws[-1].G + size, laws[-1].g)
            return replace(sol, laws=tuple(laws))
        traj = sol.trajectory
        controls = traj.controls[:-1] + (traj.controls[-1] + size,)
        return replace(sol, trajectory=Trajectory(states=traj.states, controls=controls,
                                                  stage_costs=traj.stage_costs,
                                                  total_costs=traj.total_costs))

    monkeypatch.setattr(mod, "solve", corrupted)


@pytest.mark.parametrize("solver", ["feedback-nash", "feedback-stackelberg", "openloop-nash",
                                    "openloop-stackelberg"])
def test_verify_catches_a_law_off_by_1e_6_without_drift_or_targets(tmp_path, capsys,
                                                                   monkeypatch, solver):
    """A game without drift or targets has law offsets of exactly 0, where
    the finite differences' lost-step refusal never looked: a step of
    1e-30 passed every law there.  The certificates have no step, and a
    law or control 1e-6 off fails its time-consistency gate (exit 3)."""
    path = tmp_path / "unit.json"
    save_game(scalar_unit_two_player(T=3), path)
    corrupt_on_solve(monkeypatch, solver)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--game", str(path), "--solver", solver, "--x0", "1",
                     "--samples", "10", "--out", str(out)]) == 3
    doc = strict_json(out.read_text())
    verdict = "STC" if solver.startswith("feedback") else "WTC"
    assert doc["passed"] is False and "fd_step" not in doc
    assert any(f.startswith(f"{verdict} tail deviation") for f in doc["failures"]), doc["failures"]
    assert capsys.readouterr().err.splitlines() == [
        f"verification failure: {f}" for f in doc["failures"]]


def test_simulate_nan_x0_is_input_error(unit_game_path, tmp_path):
    out = tmp_path / "t.json"
    assert cli.main(["simulate", "--game", unit_game_path, "--solver", "feedback-nash",
                     "--x0", "nan", "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_passes_on_unit_game(unit_game_path, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--game", unit_game_path,
                     "--solver", "feedback-stackelberg", "--x0", "1",
                     "--samples", "20", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["time_consistency"]["verdict"] == "STC"


def test_verify_runs_end_to_end(tmp_path):
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]],
                         Q=[[[1e-9]], [[1e-9]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=1)
    path = tmp_path / "ok.json"
    save_game(spec, path)
    assert cli.main(["verify", "--game", str(path), "--solver", "feedback-nash",
                     "--x0", "1", "--samples", "5",
                     "--out", str(tmp_path / "r.json")]) == 0


def test_solver_singularity_exits_2(unit_game_path, monkeypatch):
    from dyngame import feedback_nash
    from dyngame.errors import SingularSystemError

    def explode(spec):
        raise SingularSystemError("no unique equilibrium", context="stage 0")

    monkeypatch.setattr(feedback_nash, "solve", explode)
    assert cli.main(["solve", "--game", unit_game_path,
                     "--solver", "feedback-nash"]) == 2


def test_verify_failure_exits_3(unit_game_path, tmp_path, monkeypatch):
    import dyngame.verify as verify_mod

    real = verify_mod.stationarity

    def corrupted(spec, sol, pattern, x0=None):
        res = real(spec, sol, pattern, x0=x0)
        return {k: v + 1.0 for k, v in res.items()}

    monkeypatch.setattr(cli.verify, "stationarity", corrupted)
    code = cli.main(["verify", "--game", unit_game_path,
                     "--solver", "feedback-nash", "--x0", "1",
                     "--samples", "5", "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_reports_are_deterministic(unit_game_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert cli.main(["verify", "--game", unit_game_path,
                         "--solver", "openloop-nash", "--x0", "1",
                         "--samples", "15", "--seed", "9",
                         "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_tabulates_all_solvers(unit_game_path, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert cli.main(["compare", "--game", unit_game_path, "--x0", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    res = doc["results"]
    assert set(res) == {"feedback-nash", "openloop-nash",
                        "feedback-stackelberg", "openloop-stackelberg"}
    # leadership advantage: 0.1 < 1/9
    assert res["feedback-stackelberg"]["total_costs"][0] == pytest.approx(0.1, abs=1e-12)
    assert res["feedback-nash"]["total_costs"][0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    table = capsys.readouterr().out
    assert "total costs" in table


def test_compare_single_player_includes_lqr(lqr_game_path, tmp_path):
    out = tmp_path / "cmp1.json"
    assert cli.main(["compare", "--game", lqr_game_path, "--x0", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "lqr" in doc["results"]
    assert doc["results"]["lqr"]["total_costs"][0] == pytest.approx(0.25, abs=1e-12)


def test_compare_skips_stackelberg_on_indefinite_cross_weights(tmp_path):
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]], Q=[[[1.0]], [[1.0]]],
                         R=[[[[1.0]], [[-0.5]]], [[[0.0]], [[1.0]]]], T=1)
    path = tmp_path / "neg.json"
    save_game(spec, path)
    out = tmp_path / "cmp2.json"
    assert cli.main(["compare", "--game", str(path), "--x0", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "feedback-stackelberg" in doc["skipped"]
    assert "feedback-nash" in doc["results"]


def test_verify_lqr_solution(lqr_game_path, tmp_path):
    out = tmp_path / "lqr_report.json"
    code = cli.main(["verify", "--game", lqr_game_path, "--solver", "lqr",
                     "--x0", "1", "--samples", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["time_consistency"]["verdict"] == "STC"


def test_leader_flag_reorders_players(tmp_path):
    # an asymmetric game: leadership changes the equilibrium, and choosing
    # --leader 2 must equal solving the hand-reordered game
    spec = constant_game(A=[[0.9]], B=[[[0.5]], [[0.8]]],
                         Q=[[[1.0]], [[2.0]]],
                         R=[[[[1.0]], [[0.1]]], [[[0.2]], [[1.0]]]], T=2,
                         names=["alpha", "beta"])
    path = tmp_path / "asym.json"
    save_game(spec, path)
    out1 = tmp_path / "lead1.json"
    out2 = tmp_path / "lead2.json"
    for leader, out in ((1, out1), (2, out2)):
        assert cli.main(["solve", "--game", str(path),
                         "--solver", "feedback-stackelberg", "--x0", "1",
                         "--leader", str(leader), "--out", str(out)]) == 0
    doc1 = json.loads(out1.read_text())
    doc2 = json.loads(out2.read_text())
    assert doc1["laws"] != doc2["laws"]

    from dyngame import feedback_stackelberg
    from dyngame.game import reorder_players
    swapped = reorder_players(spec, [1, 0])
    sol = feedback_stackelberg.solve(swapped)
    assert doc2["laws"][0][0]["G"][0][0] == pytest.approx(
        sol.laws[0].G[0][0, 0], abs=1e-12)
    assert cli.main(["solve", "--game", str(path), "--solver",
                     "feedback-stackelberg", "--x0", "1", "--leader", "5"]) == 1


def test_round_trip_parse_write(tmp_path):
    spec = random_game(701, n_players=2, time_varying=True)
    path = tmp_path / "rt.json"
    save_game(spec, path)
    from dyngame.gameio import load_game
    loaded = load_game(path)
    save_game(loaded, tmp_path / "rt2.json")
    assert (tmp_path / "rt.json").read_bytes() == (tmp_path / "rt2.json").read_bytes()


# ---------------------------------------------------------------------------
# Non-finite results and non-numeric input


def overflowing_game(n_players, A, T):
    """A scalar game whose state grows as A^t with no reason to steer it
    (Q = 0), so the rollout overflows to inf and then NaN."""
    R = [[[[1.0 if i == j else 0.0]] for j in range(n_players)] for i in range(n_players)]
    return constant_game(A=[[A]], B=[[[1e-8]]] * n_players, Q=[[[0.0]]] * n_players,
                         R=R, T=T)


@pytest.mark.parametrize("command,solver,n_players,A,T,flags", [
    ("simulate", "lqr", 1, 10.0, 400, []),
    ("simulate", "lqr", 1, 10.0, 400, ["--format", "csv"]),
    # the horizon is short so that the time-consistency re-solves stay
    # cheap; the state still overflows, 1e10^31 > 1.8e308
    ("verify", "feedback-nash", 2, 1e10, 40, []),
])
def test_non_finite_result_exits_2(tmp_path, capsys, command, solver, n_players, A, T, flags):
    path = tmp_path / "overflow.json"
    save_game(overflowing_game(n_players, A, T), path)
    out = tmp_path / "out"
    assert cli.main([command, "--game", str(path), "--solver", solver, "--x0", "1",
                     *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("x0_text,as_file", [("abc", False), ('{"a": 1}', True),
                                              ('[true, 0.5]', True), ('["1", 2]', True),
                                              pytest.param("[" * 100000 + "]" * 100000, True,
                                                           id="nested-too-deep")])
def test_non_numeric_x0_is_input_error(unit_game_path, tmp_path, capsys, x0_text, as_file):
    x0 = x0_text
    if as_file:
        x0 = str(tmp_path / "x0.json")
        (tmp_path / "x0.json").write_text(x0_text)
    assert cli.main(["solve", "--game", unit_game_path, "--x0", x0]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--x0" in err and "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["solve", "--x0", "{dir}"], "cannot read --x0 file"),
    (["solve", "--x0=1,1", "--out", "{dir}/missing/o.json"], "cannot write --out file"),
    (["verify", "--x0=1,1", "--out", "{dir}"], "cannot write --out file"),
    (["verify", "--x0=1,1", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["validate", "--tol", "nan"], "tol must be finite, got nan"),
    (["validate", "--tol", "inf"], "tol must be finite, got inf"),
], ids=["x0-directory", "out-missing-dir", "out-directory", "negative-seed", "tol-nan",
        "tol-inf"])
def test_bad_path_seed_or_tol_is_input_error(tmp_path, capsys, flags, message):
    command, *rest = flags
    argv = [command, "--game", str(GOLDEN / "one_player.json"),
            *(arg.format(dir=tmp_path) for arg in rest)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "violation" not in captured.out


def test_compare_skips_non_finite_results(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    save_game(overflowing_game(1, 10.0, 400), path)
    out = tmp_path / "cmp.json"
    assert cli.main(["compare", "--game", str(path), "--x0", "1", "--out", str(out)]) == 2
    doc = strict_json(out.read_text())
    assert doc["results"] == {}
    assert set(doc["skipped"]) == {"lqr", "feedback-nash", "openloop-nash"}
    assert capsys.readouterr().out == (
        "no solver produced a solution\n"
        "skipped lqr: the result is not finite (NaN or Infinity)\n"
        "skipped feedback-nash: the result is not finite (NaN or Infinity)\n"
        "skipped openloop-nash: the result is not finite (NaN or Infinity)\n")


@pytest.mark.parametrize("level, lines", [(None, 1), ("debug", 2)])
def test_an_input_error_is_printed_once(tmp_path, level, lines):
    """At the default log level an error reaches stderr as its one
    ``error:`` line; DYNGAME_LOG=debug adds the log record."""
    env = {"PYTHONPATH": str(Path(cli.__file__).parents[1]), "PATH": ""}
    if level:
        env["DYNGAME_LOG"] = level
    done = subprocess.run([sys.executable, "-m", "dyngame.cli", "solve", "--game",
                           str(GOLDEN / "one_player.json"), "--x0", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 1
    err = done.stderr.splitlines()
    assert len(err) == lines and err[-1].startswith("error: cannot read --x0 file"), done.stderr
