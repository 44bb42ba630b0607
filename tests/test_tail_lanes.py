"""The time-consistency check and the tail games.

No backward recursion reads its initial state, so every tail game meets
the whole game's stage systems from its start on: each separately solved
tail in ``reference_formulations`` has the maps of one solve of the
whole game from its start on, bit for bit.  The check itself is a
certificate for the feedback solvers and open-loop Nash: each stage's
first-order residual, relative to the size of its terms, over stages
0..T-1 (feedback) or 1..T-1 (open-loop Nash, whose tail games' gradients
are the whole game's from their start on).  It solves nothing, and gives
the verdict of the loop of separate tail solves wherever that loop can
see a fault; it also sees a fault at stage 0, which is in no tail game.
The open-loop Stackelberg check re-solves the whole game once and replays
its path maps from every tail's start; it equals the loop of separate
tail solves exactly.  A corrupted solution fails its gate.
"""

import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dyngame import (cli, feedback_nash, feedback_stackelberg, openloop_nash,
                     openloop_stackelberg, verify)
from dyngame.game import AffineLaw, StageArrays, Trajectory, truncate
from dyngame.openloop_nash import OpenLoopNashSolution
from dyngame.solvers import FEEDBACK, OPEN_LOOP, SOLVERS, solver_of

import reference_formulations as ref
from conftest import GOLDEN, GOLDEN_X0, arrays, random_game, random_x0

ROOT = Path(__file__).resolve().parent.parent
PLAYERS = {"lqr": 1, "feedback-nash": 2, "feedback-stackelberg": 3,
           "openloop-nash": 2, "openloop-stackelberg": 3}


def solved(solver, T, time_varying=False, seed=5):
    n = PLAYERS[solver]
    spec = random_game(seed + T, n_players=n, state_dim=2, control_dims=[1, 2, 1][:n],
                       horizon=T, time_varying=time_varying, targets=solver != "lqr")
    x0 = random_x0(seed, spec)
    return spec, SOLVERS[solver].solve(spec, x0), x0


def stacked_rows(sol):
    """A tail solution's laws [G | g] (T, M, p+1) or controls (T, M)."""
    if solver_of(sol).pattern == FEEDBACK:
        return np.concatenate([np.concatenate([law.G, law.g[..., None]], axis=-1)
                               for law in sol.laws], axis=1)
    return np.concatenate(sol.trajectory.controls, axis=-1)


def open_loop_maps(sol):
    """An open-loop solution's maps by name, stage axis first: the costate
    coefficients (M or K, to stage T), their offsets, the transition maps
    (open-loop Nash) or the cocontrol maps and the path laws on the
    extended state (open-loop Stackelberg), all of one sweep of its game,
    and the path gains; open-loop Nash's path offsets too, which read no
    path state."""
    G = np.concatenate([law.G for law in sol.laws], axis=1)
    view = StageArrays.of(sol.spec)
    if isinstance(sol, OpenLoopNashSolution):
        _, m, Phi, phi = openloop_nash.sweep(view, view.s[None])[:4]
        return {"M": sol.M.swapaxes(0, 1), "m": m[0].swapaxes(0, 1), "Phi": Phi,
                "phi": phi[0], "G": G, "g": np.concatenate([law.g for law in sol.laws], axis=1)}
    K, k, N, GT, g = openloop_stackelberg.sweep(view)[:5]
    return {"K": sol.K, "k": k, "N": N, "GT": GT, "g": g, "G": G}


def values(sol):
    """A feedback solution's value coefficients, with a player axis."""
    if solver_of(sol) is SOLVERS["lqr"]:
        return sol.Z[None], sol.zeta[None], sol.n_const[None]
    return sol.Z, sol.zeta, sol.n_const


@pytest.mark.parametrize("time_varying", [False, True], ids=["broadcast", "time-varying"])
@pytest.mark.parametrize("T", [2, 6, 12, 40])
@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_each_feedback_tail_is_the_one_re_solve(solver, T, time_varying):
    spec, sol, _ = solved(solver, T, time_varying)
    assert verify.time_consistency(spec, sol, FEEDBACK).tail_deviation <= 1e-14
    resolved = stacked_rows(sol)
    for s in range(1, T):
        tail = ref.tail_solution(spec, sol, s)
        assert np.array_equal(resolved[s:], stacked_rows(tail)), s
        # The value coefficients after stage s are the tail's bit for bit.
        # At s the tail charges nothing on its initial state, while the
        # whole game's Z_s holds Q_{s-1}; without it they agree to roundoff.
        charge = np.stack([spec.prev_state_weight(s, i) for i in range(len(sol.laws))])
        for X, Y, at_start in zip(values(sol), values(tail), (charge, 0, 0)):
            assert np.array_equal(X[:, s + 1:], Y[:, 1:]), s
            gap = X[:, s] - at_start - Y[:, 0]
            assert np.all(np.abs(gap) <= 1e-12 * (1 + np.abs(Y[:, 0]))), s


def tail_of(spec, sol, s):
    """The open-loop Nash solution's claim on the tail game from s: its
    controls from s on, played from its state x_s."""
    traj = sol.trajectory
    controls = tuple(u[s:] for u in traj.controls)
    return replace(sol, spec=truncate(spec, s), x0=traj.states[s],
                   trajectory=Trajectory(states=traj.states[s:], controls=controls,
                                         stage_costs=traj.stage_costs[:, s:],
                                         total_costs=traj.stage_costs[:, s:].sum(axis=1)))


@pytest.mark.parametrize("time_varying", [False, True], ids=["broadcast", "time-varying"])
@pytest.mark.parametrize("T", [1, 2, 6, 12, 40])
@pytest.mark.parametrize("solver", ["openloop-nash", "openloop-stackelberg"])
def test_each_open_loop_tail_is_the_one_re_solve(solver, T, time_varying):
    row = SOLVERS[solver]
    spec, sol, x0 = solved(solver, T, time_varying)
    if T > 1:
        resolved = open_loop_maps(sol)
        controls = stacked_rows(sol)
        gaps = (verify._stackelberg_replays(StageArrays.of(spec), sol) if row.stackelberg
                else {"tail": None})
        for name in gaps:
            expected = np.zeros(T - 1)
            for s in range(1, T):
                tail = ref.tail_solution(spec, sol, s, reset=name == "reset")
                # Its maps from s on are the solve's, bit for bit, but for
                # the weight the whole game charges on x_s.
                for key, Y in open_loop_maps(tail).items():
                    X = resolved[key]
                    first = s + 1 if key in ("M", "K") else s
                    assert np.array_equal(X[first:], Y[first - s:]), (name, s, key)
                # Its controls are the replay's: the gap at each stage t
                # is the largest over the tails from 1..t, bit for bit.
                gap = np.abs(stacked_rows(tail) - controls[s:]).max(axis=1)
                expected[s - 1:] = np.maximum(expected[s - 1:], gap)
                if not row.stackelberg:
                    # The tail game's gradients are the whole game's from s
                    # on: its certificate stays below the whole game's.
                    claim = verify.stationarity(tail.spec, tail_of(spec, sol, s), OPEN_LOOP)
                    assert max(claim.values()) <= 1e-12, (s, claim)
            if row.stackelberg:
                assert gaps[name].shape == (T - 1,)
                assert np.array_equal(gaps[name], expected), name

    if T > 12:  # the tails above cover it; the loop would repeat every tail solve
        return
    tc = verify.time_consistency(spec, sol, OPEN_LOOP)
    if row.stackelberg:
        assert tc == ref.time_consistency(spec, sol, OPEN_LOOP)
    assert tc.verdict == "WTC" and tc.tail_deviation <= verify.WTC_TOL
    assert (tc.mu_reset_deviation is None) == (not row.stackelberg)


def corrupted(sol, stage, player, size=1e-6):
    """``sol`` with one gain entry of ``player``'s stage law moved by ``size``."""
    laws = list(sol.laws)
    G = laws[player].G.copy()
    G[stage, 0, -1] += size
    laws[player] = AffineLaw(G, laws[player].g)
    return replace(sol, laws=tuple(laws))


def corrupted_controls(sol, stage, size=1e-6):
    """``sol`` with the first control entry of its last player at ``stage``
    moved by ``size``, its path left as it was."""
    traj = sol.trajectory
    controls = list(traj.controls)
    u = controls[-1].copy()
    u[stage, 0] += size
    controls[-1] = u
    return replace(sol, trajectory=Trajectory(states=traj.states, controls=tuple(controls),
                                              stage_costs=traj.stage_costs,
                                              total_costs=traj.total_costs))


@pytest.mark.parametrize("stage", [None, 0, 1, "last"])
@pytest.mark.parametrize("T", [2, 6, 12])
@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_feedback_check_agrees_with_every_tail_re_solved(solver, T, stage):
    spec, sol, _ = solved(solver, T, time_varying=True)
    if stage is not None:
        sol = corrupted(sol, T - 1 if stage == "last" else stage, len(sol.laws) - 1)
    tc = verify.time_consistency(spec, sol, FEEDBACK)
    loop = ref.time_consistency(spec, sol, FEEDBACK)
    assert tc.verdict == loop.verdict == "STC"
    if stage is None:
        assert tc.tail_deviation <= 1e-14 and loop.tail_deviation == 0.0
    elif stage == 0:
        # Stage 0 is in no tail game: the re-solves never see it, the
        # certificate does.
        assert loop.tail_deviation == 0.0 and tc.tail_deviation > verify.STC_TOL
    else:
        assert loop.tail_deviation == pytest.approx(1e-6, rel=1e-6)
        assert tc.tail_deviation > verify.STC_TOL


@pytest.mark.parametrize("stage", [None, 0, 1, "last"])
@pytest.mark.parametrize("T", [2, 6, 12])
@pytest.mark.parametrize("solver", ["openloop-nash", "openloop-stackelberg"])
def test_open_loop_check_agrees_with_every_tail_re_solved(solver, T, stage):
    spec, clean, _ = solved(solver, T, time_varying=True)
    sol = clean if stage is None else corrupted_controls(clean, T - 1 if stage == "last" else stage)
    tc = verify.time_consistency(spec, sol, OPEN_LOOP)
    loop = ref.time_consistency(spec, sol, OPEN_LOOP)
    stackelberg = SOLVERS[solver].stackelberg
    if stackelberg:
        assert tc == loop
    if stage is None:
        assert tc.tail_deviation <= verify.WTC_TOL and loop.tail_deviation <= verify.WTC_TOL
    elif stage == 0:
        # Stage 0 is in no tail game, so the replays never see it; a
        # control moved there moves the path, and so the costate gradients
        # of every later stage.
        assert loop.tail_deviation <= verify.WTC_TOL
        assert (tc.tail_deviation <= verify.WTC_TOL) == stackelberg
    else:
        assert loop.tail_deviation == pytest.approx(1e-6, rel=1e-6)
        assert tc.tail_deviation > verify.WTC_TOL


@pytest.mark.parametrize("T", [1, 2, 6, 12])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_one_check_solves_at_most_one_game(solver, T, layer_calls):
    # the certificates read the stage view and solve nothing; the
    # open-loop Stackelberg check validates and re-solves the game once
    row = SOLVERS[solver]
    spec, sol, _ = solved(solver, T)
    layer_calls.clear()
    tc = verify.time_consistency(spec, sol, row.pattern)
    if T == 1:
        assert tc.tail_deviation <= 1e-14
    if solver != "openloop-stackelberg":
        assert layer_calls == {"StageArrays.of": 1}
    elif T == 1:
        assert not +layer_calls
    else:
        assert layer_calls == {"game.validate": 1, "openloop_stackelberg.sweep": 1}


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_stationarity_solves_only_the_open_loop_leaders_tangents(solver, layer_calls):
    # one pass of products over the stage view, and for the open-loop
    # Stackelberg leader one validation and one drift-batched sweep of the
    # followers' game
    row = SOLVERS[solver]
    spec, sol, x0 = solved(solver, 12, time_varying=True)
    layer_calls.clear()
    verify.stationarity(spec, sol, row.pattern, x0=x0)
    if solver == "openloop-stackelberg":
        assert layer_calls == {"StageArrays.of": 1, "game.validate": 1, "openloop_nash.sweep": 1}
    else:
        assert layer_calls == {"StageArrays.of": 1}


@pytest.mark.parametrize("solver", ["openloop-nash", "openloop-stackelberg"])
def test_the_open_loop_check_holds_no_array_of_tails_by_stages(solver):
    # the certificate holds one costate per stage, and the replay one
    # state per tail and one gap per stage: their allocations stay below
    # one (T-1) x T array of the controls
    T = 300
    spec, sol, _ = solved(solver, T, time_varying=True)
    tracemalloc.start()
    try:
        verify.time_consistency(spec, sol, OPEN_LOOP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (T - 1) * T * stacked_rows(sol).shape[1]


@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_corrupted_feedback_law_fails_stc(solver):
    spec, sol, x0 = solved(solver, 6, time_varying=True)
    laws = list(sol.laws)
    G = laws[-1].G.copy()
    G[3, 0, 1] += 1e-6
    laws[-1] = AffineLaw(G, laws[-1].g)
    bad = replace(sol, laws=tuple(laws))
    tc = verify.time_consistency(spec, bad, FEEDBACK)
    assert tc.tail_deviation > verify.STC_TOL
    assert ref.time_consistency(spec, bad, FEEDBACK).tail_deviation > verify.STC_TOL
    report = verify.run_verification(spec, bad, FEEDBACK, solver, x0=x0, samples=5,
                                     leader_samples=5)
    assert any(f.startswith("STC tail deviation") for f in report.failures), report.failures


@pytest.mark.parametrize("solver", ["lqr", "feedback-nash", "feedback-stackelberg"])
def test_a_law_corrupted_at_stage_0_fails_stc(solver):
    """Stage 0 is in no tail game, so re-solving the tails never compared
    it; the certificate tests every stage."""
    spec, sol, x0 = solved(solver, 6, time_varying=True)
    laws = list(sol.laws)
    for player in range(len(laws)):
        moved = list(laws)
        G = laws[player].G.copy()
        G[0] += 1e-4
        moved[player] = AffineLaw(G, laws[player].g)
        bad = replace(sol, laws=tuple(moved))
        assert ref.time_consistency(spec, bad, FEEDBACK).tail_deviation == 0.0
        report = verify.run_verification(spec, bad, FEEDBACK, solver, x0=x0, samples=5,
                                         leader_samples=5)
        assert report.time_consistency.tail_deviation > verify.STC_TOL, player
        assert any(f.startswith("STC tail deviation") for f in report.failures), player


def test_nan_law_fails_stc():
    # a NaN residual must not vanish in the maximum over the stages, in
    # the check or in the reference loop of separate tail solves
    spec, sol, x0 = solved("feedback-nash", 6)
    laws = list(sol.laws)
    G = laws[1].G.copy()
    G[3, 0, 0] = np.nan
    laws[1] = AffineLaw(G, laws[1].g)
    bad = replace(sol, laws=tuple(laws))
    assert np.isnan(verify.time_consistency(spec, bad, FEEDBACK).tail_deviation)
    assert np.isnan(ref.time_consistency(spec, bad, FEEDBACK).tail_deviation)


@pytest.mark.parametrize("solver", ["openloop-nash", "openloop-stackelberg"])
def test_corrupted_open_loop_control_fails_wtc(solver):
    spec, sol, x0 = solved(solver, 6, time_varying=True)
    bad = corrupted_controls(sol, 4)
    tc = verify.time_consistency(spec, bad, OPEN_LOOP)
    assert tc.tail_deviation > verify.WTC_TOL
    assert ref.time_consistency(spec, bad, OPEN_LOOP).tail_deviation > verify.WTC_TOL
    report = verify.run_verification(spec, bad, OPEN_LOOP, solver, x0=x0, samples=5,
                                     leader_samples=5)
    assert any(f.startswith("WTC tail deviation") for f in report.failures), report.failures


@pytest.mark.parametrize("sweep", [feedback_nash.sweep, feedback_stackelberg.sweep],
                         ids=["feedback-nash", "feedback-stackelberg"])
def test_two_sweeps_of_one_game_are_identical(sweep):
    # a sweep's arrays hold only what it computed, not whatever memory
    # the arrays were given
    spec = random_game(11, n_players=3, state_dim=2, control_dims=[1, 2, 1], horizon=12,
                       time_varying=True)
    view = StageArrays.of(spec)
    assert arrays(sweep(view)) == arrays(sweep(view))


def golden_runs(case, out_dir):
    """The command lines of a cold-start case: none for ``import``, a
    validate, or ``solve``/``verify --out`` of every solver on one golden
    game (``<command>-<game>``), each writing into ``out_dir``."""
    if case == "import":
        return []
    if case == "validate":
        return [["validate", "--game", str(GOLDEN / "two_player.json")]]
    command, game = case.split("-")
    extra = ["--seed", "3"] if command == "verify" else []
    return [[command, "--game", str(GOLDEN / f"{game}.json"), f"--x0={GOLDEN_X0[game]}",
             "--solver", name, *extra, "--out", str(out_dir / f"{name}.json")] for name in SOLVERS]


def outputs(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", ["import", "validate"] + [
    f"{command}-{game}" for command in ("solve", "verify") for game in GOLDEN_X0])
def test_cold_start_without_scipy(case, tmp_path, capsys):
    # A fresh interpreter runs the case, then lists the scipy modules it
    # imported: none but the LAPACK wrapper, loaded from its file by the
    # first solve, not the scipy or scipy.linalg packages.
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir(), warm.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys; from dyngame import cli; "
         f"print(json.dumps([cli.main(argv) for argv in {golden_runs(case, cold)!r}])); "
         "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert done.returncode == 0, done.stderr
    *printed, codes, imported = done.stdout.splitlines()
    solves = case not in ("import", "validate")
    assert imported == str(["scipy.linalg._flapack"] if solves else []), done.stdout
    # The same runs in this process, after scipy.linalg, give the same bytes.
    import scipy.linalg  # noqa: F401
    capsys.readouterr()
    assert json.loads(codes) == [cli.main(argv) for argv in golden_runs(case, warm)]
    assert printed == capsys.readouterr().out.splitlines()
    assert outputs(cold) == outputs(warm)
    assert len(outputs(cold)) == (sum(code == 0 for code in json.loads(codes)) if solves else 0)
