"""One stacking per game: the checked view that ``validate`` yields.

``validate`` stacks a game's stage data once, checks the stacks and, when
nothing is wrong, carries them in its report as the view the solvers read;
``require_valid`` returns that view.  These tests pin each solve and each
open-loop leader cost to one validation and no second stacking, the
report's view to the unchecked ``StageArrays.of`` field for field, the
player selection on the view to the view of the rebuilt game, and the
leader cost on the selection to its former form on the rebuilt followers'
game, bit for bit.

A game stacks itself once, when it is built, and keeps its stacks with
its view and its test outcomes per tolerance, so nothing in a
verification job stacks it again, feedback Stackelberg's leader checks
included.  When its shapes are right its stages are read-only views of
those stacks, weights asymmetric within ``SYMMETRY_RTOL`` averaged.  The
ownership tests pin that count, the stages' memory and repair, the
reports under every tolerance and mode, each game's own reports beside
another's, the release of a game's view with the game, and games
validated on several threads at once.
"""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from dyngame import game, openloop_stackelberg, verify
from dyngame.errors import InvalidGameError
from dyngame.game import StageArrays, StageData, constant_game, require_valid, validate
from dyngame.numerics import SYMMETRY_RTOL
from dyngame.solvers import OPEN_LOOP, SOLVERS

import reference_formulations as ref
from conftest import random_game, random_x0, rng_for

ENTRY = {"lqr": "lqr.solve_control", "feedback-nash": "feedback_nash.solve",
         "feedback-stackelberg": "feedback_stackelberg.solve",
         "openloop-nash": "openloop_nash.solve",
         "openloop-stackelberg": "openloop_stackelberg.solve"}


def games(min_players=1):
    """Seeded conftest games, n = 1-4 players, one StageData broadcast
    over the horizon or one per stage."""
    for n in range(min_players, 5):
        for time_varying in (False, True):
            for k in range(3):
                seed = 500 + 10 * n + 5 * time_varying + k
                yield random_game(seed, n_players=n, horizon=1 + seed % 7,
                                  time_varying=time_varying), seed


def assert_same_view(a, b):
    for f in fields(StageArrays):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x == y if f.name == "blocks" else np.array_equal(x, y), f.name


@pytest.fixture
def stage_data_built(monkeypatch):
    """A list that grows by one for every StageData constructed."""
    built = []
    post_init = StageData.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(StageData, "__post_init__", counted)
    return built


@pytest.fixture
def stacks_built(monkeypatch):
    """A list that grows by one for every game stacking (``game._Stacks``)."""
    built = []
    init = game._Stacks.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(game._Stacks, "__init__", counted)
    return built


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_a_verification_job_stacks_its_game_once(solver, stacks_built):
    """The game stacks itself when built; validate, solve and the whole
    oracle battery read that stacking, and feedback Stackelberg's
    leader-mode validation adds its R^{0j} tests to it."""
    n = 1 if solver == "lqr" else 3
    for time_varying in (False, True):
        stacks_built.clear()
        spec = random_game(31, n_players=n, horizon=4, time_varying=time_varying,
                           targets=solver != "lqr")
        assert len(stacks_built) == 1
        x0 = random_x0(31, spec)
        row = SOLVERS[solver]
        assert validate(spec).ok
        report = verify.run_verification(spec, row.solve(spec, x0), row.pattern, solver, x0=x0)
        assert report.passed
        assert len(stacks_built) == 1


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_a_solve_and_its_rollout_stack_the_game_once(solver, stacks_built):
    n = 1 if solver == "lqr" else 3
    spec = random_game(32, n_players=n, horizon=6, time_varying=True, targets=solver != "lqr")
    assert len(stacks_built) == 1
    x0 = random_x0(32, spec)
    sol = SOLVERS[solver].solve(spec, x0)
    game.rollout(spec, sol.trajectory.controls if SOLVERS[solver].pattern == OPEN_LOOP
                 else sol.laws, x0)
    assert len(stacks_built) == 1
    replace(spec)  # a new game from the same stages stacks itself
    assert len(stacks_built) == 2


def stage_entries(st, view, t):
    """The entries of stage ``st``, each with the view field that lays it
    out and its block of the view's stage t."""
    n, b = len(st.Q), view.blocks
    return [(st.A, "A", view.A[t]), *((st.B[j], "B", view.B[t][:, b[j]]) for j in range(n)),
            (st.s, "s", view.s[t]), *((st.Q[i], "Q", view.Q[t, i]) for i in range(n)),
            *((st.R[i][j], "R", view.R[t, i][b[j], b[j]]) for i in range(n) for j in range(n)),
            *((st.x_target[i], "xt", view.xt[t, i]) for i in range(n)),
            *((st.u_target[i][j], "ut", view.ut[t, i][b[j]]) for i in range(n) for j in range(n))]


def test_a_well_formed_game_holds_its_stages_as_views_of_its_stacks():
    """Every stage entry is a read-only view of the game's stacks, equal to
    its block of the view, and one memory with the view when every stage
    is its own StageData object; stages that shared one object share one."""
    for spec, seed in games():
        view, stacks = StageArrays.of(spec), spec._stacks
        K = len({id(st) for st in spec.stages})  # one object, or one per stage
        assert K == spec.horizon or all(st is spec.stages[0] for st in spec.stages), seed
        for t, st in enumerate(spec.stages):
            for entry, name, laid in stage_entries(st, view, t):
                assert not entry.flags.writeable, (seed, name)
                assert np.shares_memory(entry, stacks.fields[name]), (seed, name)
                assert np.array_equal(entry, laid), (seed, name)
                assert np.shares_memory(entry, laid) == (K == spec.horizon), (seed, name)


def test_a_game_averages_weights_asymmetric_within_the_repair_tolerance():
    """A Q^i or R^{ij} asymmetric within SYMMETRY_RTOL reads exactly
    0.5 M + 0.5 M' in the game's stages and view; one beyond it, or not
    finite, is left as given, and so is any weight of a StageData built
    on its own."""
    spec = random_game(35, n_players=2, state_dim=3, control_dims=[2, 2], horizon=3,
                       time_varying=True)
    st = spec.stages[1]

    def skewed(M, by):
        M = np.array(M)
        M[0, -1] += by * (1 + np.abs(M).max())
        return M

    within = skewed(st.Q[0], 0.4 * SYMMETRY_RTOL)
    beyond = skewed(st.R[0][1], 10 * SYMMETRY_RTOL)
    nan = skewed(st.R[1][1], 0.4 * SYMMETRY_RTOL)
    nan[-1, 0] = np.nan
    given = StageData(A=st.A, B=st.B, s=st.s, Q=(within, st.Q[1]),
                      R=((st.R[0][0], beyond), (st.R[1][0], nan)),
                      x_target=st.x_target, u_target=st.u_target)
    assert np.array_equal(given.Q[0], within)  # no repair on its own
    built = game.GameSpec(3, 3, spec.players, (spec.stages[0], given, spec.stages[2]))
    view, repaired = StageArrays.of(built), 0.5 * within + 0.5 * within.T
    assert not np.array_equal(repaired, within)
    for M, stage_entry, laid in ((repaired, built.stages[1].Q[0], view.Q[1, 0]),
                                 (beyond, built.stages[1].R[0][1], view.R[1, 0, 2:, 2:]),
                                 (nan, built.stages[1].R[1][1], view.R[1, 1, 2:, 2:])):
        assert np.array_equal(stage_entry, M, equal_nan=True)
        assert np.array_equal(laid, M, equal_nan=True)
    assert [m.split(" (")[0] for m in validate(built).messages()] == [
        "stages/1/R/0/1: not symmetric", "stages/1/R/1/1: not finite"]
    assert validate(built) == ref.validate(built)


@pytest.mark.parametrize("stackelberg_first", [False, True])
def test_the_leader_mode_report_is_its_own(stackelberg_first):
    """An indefinite cross weight R^{01} passes plain validation and fails
    the leader's PSD check, whichever of the two runs first."""
    spec = constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]], Q=[[[1.0]], [[1.0]]],
                         R=[[[[1.0]], [[-1.0]]], [[[0.0]], [[1.0]]]], T=2)
    leader = [f"stages/{t}/R/0/1: not positive semidefinite (min eigenvalue -1.000e+00)"
              for t in range(2)]
    for for_stackelberg in ([True, False] if stackelberg_first else [False, True]):
        report = validate(spec, for_stackelberg=for_stackelberg)
        assert report.messages() == (leader if for_stackelberg else [])
        assert report == ref.validate(spec, for_stackelberg=for_stackelberg)


@pytest.mark.parametrize("loose_first", [False, True])
def test_each_tolerance_gets_its_own_report(loose_first):
    """A state weight of smallest eigenvalue -1e-8 fails tol = 1e-9 and
    passes tol = 1e-7, whichever runs first."""
    spec = constant_game(A=np.eye(2), B=[np.ones((2, 1))], Q=[np.diag([1.0, -1e-8])],
                         R=[[np.eye(1)]], T=3)
    for tol in ([1e-7, 1e-9] if loose_first else [1e-9, 1e-7]):
        report = validate(spec, tol=tol)
        assert report.ok == (tol == 1e-7), tol
        assert report == ref.validate(spec, tol=tol)
        assert report.ok or report.messages()[0].startswith(
            "stages/0/Q/0: not positive semidefinite (min eigenvalue -1.000e-08)")


def test_each_game_keeps_its_own_reports_beside_another():
    a = constant_game(A=[[1.0]], B=[[[1.0]]], Q=[[[-1.0]]], R=[[[[1.0]]]], T=2)
    b = random_game(33, n_players=2, horizon=3)
    expected = {id(spec): ref.validate(spec) for spec in (a, b)}
    first = {id(spec): validate(spec) for spec in (a, b)}
    for spec in (a, b, a, b):
        assert validate(spec) is first[id(spec)] and validate(spec) == expected[id(spec)]
    assert not validate(a).ok and validate(b).ok
    assert StageArrays.of(b) is validate(b).view


def test_a_game_keeps_its_view_and_releases_it_with_itself(stacks_built):
    spec = random_game(34, n_players=2, horizon=3)
    view = StageArrays.of(spec)
    assert validate(spec).view is view and require_valid(spec) is view
    StageArrays.of(random_game(35, n_players=2, horizon=3))  # another game's view
    assert StageArrays.of(spec) is view
    assert len(stacks_built) == 2  # one per game built
    released = weakref.ref(view)
    del spec, view
    gc.collect()
    assert released() is None


def test_games_validated_and_rolled_out_on_threads_match_one_thread():
    """Two threads at a time validate, in both modes, and roll out each
    game; the stacks a game shares with the threads must never hand one
    thread a report of another mode or tolerance."""
    specs = [random_game(40 + k, n_players=1 + k % 3, state_dim=1 + k % 3, horizon=3 + k,
                         time_varying=bool(k % 2)) for k in range(4)]
    x0s = [random_x0(40 + k, spec) for k, spec in enumerate(specs)]
    controls = [[rng_for(50 + k).standard_normal((spec.horizon, m)) for m in spec.control_dims]
                for k, spec in enumerate(specs)]

    def run(k):
        reports = [validate(specs[k], for_stackelberg=leader) for leader in (k % 2 == 0, k % 2 == 1)]
        return reports, game.rollout(specs[k], controls[k], x0s[k])

    expected = [run(k) for k in range(4)]

    def repeat(k):
        for _ in range(50):
            reports, traj = run(k)
            assert reports == expected[k][0]
            assert_same_view(reports[0].view, expected[k][0][0].view)
            assert np.array_equal(traj.states, expected[k][1].states)
            assert np.array_equal(traj.stage_costs, expected[k][1].stage_costs)
        return k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(repeat, k % 4) for k in range(8)]
            assert [f.result(timeout=120) for f in futures] == [k % 4 for k in range(8)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_each_solve_validates_once_and_stacks_no_second_view(solver, layer_calls):
    n = 1 if solver == "lqr" else 3
    spec = random_game(9, n_players=n, horizon=5, time_varying=True, targets=solver != "lqr")
    x0 = random_x0(9, spec)
    layer_calls.clear()
    SOLVERS[solver].solve(spec, x0)
    sweep = ("feedback_nash" if solver == "lqr" else ENTRY[solver].split(".")[0]) + ".sweep"
    assert layer_calls == {"game.validate": 1, ENTRY[solver]: 1, sweep: 1}


def test_the_report_carries_the_view_of_a_valid_game():
    for spec, seed in games():
        report = validate(spec)
        assert report.ok
        assert_same_view(report.view, StageArrays.of(spec))
        assert_same_view(require_valid(spec), report.view)
        for f in fields(StageArrays):
            if f.name != "blocks":
                assert not getattr(report.view, f.name).flags.writeable, (seed, f.name)


def test_a_game_with_violations_carries_no_view():
    spec = random_game(3, n_players=2, horizon=3)
    st = spec.stages[0]
    bad = StageData(A=st.A, B=st.B, s=st.s, Q=(st.Q[0], -np.eye(len(st.A))), R=st.R,
                    x_target=st.x_target, u_target=st.u_target)
    report = validate(game.GameSpec(spec.horizon, spec.state_dim, spec.players, (bad,) * 3))
    assert not report.ok and report.view is None


def test_player_selection_equals_the_view_of_the_rebuilt_game():
    for spec, seed in games(min_players=2):
        view = StageArrays.of(spec)
        n = spec.n_players
        for keep in ([i for i in range(n) if i != 0], [n - 1], list(range(n))[::-1]):
            assert_same_view(view.select(keep), StageArrays.of(game._player_subgame(spec, keep)))


@pytest.mark.parametrize("batched", [False, True])
def test_leader_cost_equals_the_rebuilt_game_form_bit_for_bit(batched):
    for spec, seed in games(min_players=2):
        x0 = random_x0(seed, spec)
        u1 = openloop_stackelberg.solve(spec, x0).trajectory.controls[0]
        U = u1 + 0.1 * rng_for(seed).standard_normal((5,) + u1.shape) if batched else u1
        new = verify.leader_cost_open_loop(spec, U, x0)
        assert np.array_equal(new, ref.leader_cost_on_rebuilt_game(spec, U, x0)), seed
        assert isinstance(new, np.ndarray if batched else float)


@pytest.mark.parametrize("check", ["leader_gap", "stationarity"])
def test_open_loop_leader_checks_validate_once_and_sweep_once(check, layer_calls,
                                                              stage_data_built, monkeypatch):
    # The leader gap prices all its samples with one leader cost; the
    # stationarity certificate differentiates the followers' response with
    # one tangent sweep of its own, and reads the stage view for the
    # costate pass.
    spec = random_game(17, n_players=3, horizon=4, time_varying=True)
    x0 = random_x0(17, spec)
    sol = openloop_stackelberg.solve(spec, x0)
    during = []  # the layer calls each leader cost makes
    leader_cost = verify.leader_cost_open_loop

    def counted(*args, **kwargs):
        before = layer_calls.copy()
        out = leader_cost(*args, **kwargs)
        during.append(layer_calls - before)
        return out

    monkeypatch.setattr(verify, "leader_cost_open_loop", counted)
    stage_data_built.clear()
    layer_calls.clear()
    getattr(verify, check)(spec, sol, verify.OPEN_LOOP)
    one = {"game.validate": 1, "openloop_nash.sweep": 1}
    if check == "leader_gap":
        assert during == [one] and layer_calls == one
    else:
        assert during == [] and layer_calls == {**one, "StageArrays.of": 1}
    assert not stage_data_built


def test_leader_cost_refuses_a_game_without_followers():
    spec = random_game(4, n_players=1, horizon=3)
    with pytest.raises(InvalidGameError, match="follower"):
        verify.leader_cost_open_loop(spec, np.zeros((3, spec.control_dims[0])),
                                     np.zeros(spec.state_dim))
