"""Every sweep tests its stage solves after its stage loop, not as it
makes them.

A sweep solves each stage's systems with the bare LAPACK calls of a
:class:`dyngame.numerics.Checks` and runs the pivot and residual tests over
all of them afterwards (or each time a capped stack fills).  These tests pin what that must not change: every
solution is bit-identical to the one the eager tests gave (the stand-in
:class:`reference_formulations.EagerChecks` tests each call as it is
made), and a failing sweep raises the error the eager tests raised, the
first failing call in sweep order, without a warning on the way.
"""

import warnings
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from dyngame import (feedback_nash, feedback_stackelberg, lqr, numerics, openloop_nash,
                     openloop_stackelberg, verify)
from dyngame.errors import SingularSystemError
from dyngame.game import StageArrays, constant_game
from dyngame.numerics import Checks, Site
from dyngame.solvers import FEEDBACK, SOLVERS

import reference_formulations as ref
from conftest import arrays, random_game, random_x0

SWEEPS = (feedback_nash, feedback_stackelberg, openloop_nash, openloop_stackelberg)
PLAYERS = {"lqr": 1, "feedback-nash": 2, "feedback-stackelberg": 3,
           "openloop-nash": 3, "openloop-stackelberg": 2}


@pytest.fixture
def eager(monkeypatch):
    """Makes every sweep test each call at once."""
    def install():
        for module in SWEEPS:
            monkeypatch.setattr(module, "Checks", ref.EagerChecks)
    return install


def outcome(run):
    """The arrays ``run()`` returns, or the error it raises, word for word."""
    try:
        return arrays(run())
    except SingularSystemError as exc:
        return type(exc), str(exc), exc.context, exc.cond_estimate


def unchecked(*modules):
    """Each module's ``require_valid`` replaced by the unchecked view, so
    that a game built to fail a stage solve reaches it."""
    stack = ExitStack()
    for module in modules:
        stack.enter_context(mock.patch.object(module, "require_valid",
                                              lambda spec, **kw: StageArrays.of(spec)))
    return stack


# ---------------------------------------------------------------------------
# Bit identity


@pytest.mark.parametrize("time_varying", [False, True], ids=["broadcast", "time-varying"])
@pytest.mark.parametrize("T", [1, 5, 12])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solutions_and_tails_equal_the_eager_tests_bit_for_bit(solver, T, time_varying, eager):
    # the open-loop Stackelberg check replays one re-solve of the whole
    # game; the other checks solve nothing
    n = PLAYERS[solver]
    spec = random_game(40 + T, n_players=n, state_dim=2, control_dims=[2, 1, 1][:n],
                       horizon=T, time_varying=time_varying, targets=solver != "lqr")
    x0 = random_x0(40 + T, spec)
    row = SOLVERS[solver]

    def run():
        sol = row.solve(spec, x0)
        tc = verify.time_consistency(spec, sol, row.pattern)
        return sol, np.array([tc.tail_deviation, np.nan if tc.mu_reset_deviation is None
                              else tc.mu_reset_deviation])

    deferred = outcome(run)
    assert isinstance(deferred, dict), deferred  # solved, not refused
    eager()
    assert outcome(run) == deferred


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_one_lapack_call_per_stage_system_and_one_test_per_row(solver, capped, monkeypatch):
    # one call per stage system, and for the open-loop solvers one per stage
    # and player for the R^ii solves; capped, each site's stack holds a few
    # rows and is tested as it fills
    T, n = 12, PLAYERS[solver]
    calls = {"lqr": T, "feedback-nash": T, "feedback-stackelberg": 3 * T,
             "openloop-nash": T + n * T, "openloop-stackelberg": 2 * T + n * T}[solver]
    spec = random_game(70, n_players=n, state_dim=2, control_dims=[2, 1, 1][:n], horizon=T,
                       time_varying=True, targets=solver != "lqr")
    x0 = random_x0(70, spec)
    expected = arrays(SOLVERS[solver].solve(spec, x0))
    gesv, tests = numerics._lapack(), numerics._Rows.tests
    solved, tested = [], []

    def counted(a, b):
        solved.append(a.copy())
        return gesv(a, b)

    def recorded(rows):
        tested.append((rows, rows.A[:rows.used].copy()))
        return tests(rows)

    monkeypatch.setattr(numerics, "_LAPACK", counted)
    monkeypatch.setattr(numerics._Rows, "tests", recorded)
    if capped:
        monkeypatch.setattr(numerics, "_ROWS_BYTES", 1500)
    assert arrays(SOLVERS[solver].solve(spec, x0)) == expected
    assert len(solved) == calls
    rows = [a.tobytes() for _, stack in tested for a in stack]
    assert sorted(rows) == sorted(a.tobytes() for a in solved)
    stacks = {id(stack) for stack, _ in tested}
    assert (len(tested) > len(stacks)) == capped


# ---------------------------------------------------------------------------
# Which failure is reported


def stage_games(T=6, singular=(), nan_drift=(), inf_drift=(), n=2, seed=5):
    """A time-varying scalar game whose stage systems fail where asked:
    every weight and input zero at the ``singular`` stages, so that every
    stage system there is zero, and a NaN or infinite drift at the
    ``nan_drift`` or ``inf_drift`` stages, so that the solutions there fail
    their residual test."""
    spec = random_game(seed, n_players=n, state_dim=1, control_dims=[1] * n, horizon=T,
                       time_varying=True, targets=n > 1)
    stages = list(spec.stages)
    zero = np.zeros((1, 1))
    for t in singular:
        stages[t] = replace(stages[t], B=(zero,) * n,
                            R=tuple(tuple(zero for _ in range(n)) for _ in range(n)))
    for t in nan_drift:
        stages[t] = replace(stages[t], s=np.array([np.nan]))
    for t in inf_drift:
        stages[t] = replace(stages[t], s=np.array([np.inf]))
    return replace(spec, stages=tuple(stages)), random_x0(seed, spec)


ALL_SOLVERS = [lqr, feedback_nash, feedback_stackelberg, openloop_nash, openloop_stackelberg]


def failure(solver, spec, x0):
    """The error the solver raises on a game that skips validation."""
    with unchecked(*ALL_SOLVERS):
        with pytest.raises(SingularSystemError) as failed:
            SOLVERS[solver].solve(spec, x0)
    return failed.value


def test_of_two_failing_stages_the_later_is_reported(eager):
    spec, x0 = stage_games(singular=(1, 3))
    error = failure("feedback-nash", spec, x0)
    assert error.context == "stage 3"
    assert str(error).startswith("stage 3: the stage first-order conditions admit no unique "
                                 "solution, so the game has no unique feedback Nash equilibrium "
                                 "in affine strategies (stage 3 stacked Nash gain/offset system: "
                                 "matrix is singular")
    eager()
    assert str(failure("feedback-nash", spec, x0)) == str(error)


def test_a_later_residual_failure_is_reported_before_an_earlier_pivot_failure(eager):
    # the sweep meets stage 4's NaN solution before stage 1's zero matrix,
    # whose pivot failure must not jump the queue
    spec, x0 = stage_games(singular=(1,), nan_drift=(4,))
    error = failure("feedback-nash", spec, x0)
    assert error.context == "stage 4"
    assert "(stage 4 stacked Nash gain/offset system: solution residual nan" in str(error)
    eager()
    assert str(failure("feedback-nash", spec, x0)) == str(error)


@pytest.mark.parametrize("scenario", [dict(singular=(1, 3)), dict(nan_drift=(2, 4)),
                                      dict(singular=(1,), nan_drift=(4,)),
                                      dict(singular=(4,), nan_drift=(1,))],
                         ids=["two-singular", "two-nan", "nan-after-singular",
                              "singular-after-nan"])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_every_solver_fails_as_the_eager_tests_fail(solver, scenario, eager):
    spec, x0 = stage_games(n=PLAYERS[solver], **scenario)
    singular, nan_drift = scenario.get("singular", ()), scenario.get("nan_drift", ())
    # the open-loop solvers solve every stage's R^ii before the stage loop
    met_first = (max(singular) if singular and SOLVERS[solver].pattern != FEEDBACK
                 else max(singular + nan_drift))
    error = failure(solver, spec, x0)
    assert str(error).startswith(f"stage {met_first}")
    eager()
    again = failure(solver, spec, x0)
    assert (str(again), again.context, again.cond_estimate) == (
        str(error), error.context, error.cond_estimate)


def scalar_pair(q0, q1, T=1):
    """The scalar two-player game with unit dynamics, inputs and own
    weights, and state weights q0 and q1, which need not be definite."""
    return constant_game(A=[[1.0]], B=[[[1.0]], [[1.0]]], Q=[[[q0]], [[q1]]],
                         R=[[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], T=T)


@pytest.mark.parametrize("solver, weights, message", [
    ("feedback-stackelberg", (1.0, -1.0),
     "stage 0: the follower stage systems admit no unique optimal response "
     "(stage 0 follower reaction system: matrix is singular to working precision"),
    ("feedback-stackelberg", (-1.0, 0.0),
     "stage 0 leader system: matrix is singular to working precision"),
    ("openloop-stackelberg", (1.0, -1.0),
     "stage 0: the stacked cocontrol coefficient systems admit no unique solution "
     "(stage 0 stacked cocontrol system: matrix is singular to working precision"),
    ("openloop-stackelberg", (-1.0, 0.0),
     "stage 0: the state transition operator I - B U_x is singular "
     "(stage 0 state transition operator: matrix is singular to working precision"),
], ids=["follower-reaction", "leader", "cocontrol", "transition"])
def test_stackelberg_systems_keep_their_message_and_context(solver, weights, message, eager):
    spec = scalar_pair(*weights)
    error = failure(solver, spec, np.array([1.0]))
    assert str(error).startswith(message)
    assert error.context == ("stage 0 leader system" if "leader" in message else "stage 0")
    assert error.cond_estimate == float("inf")
    eager()
    again = failure(solver, spec, np.array([1.0]))
    assert (str(again), again.context) == (str(error), error.context)


@pytest.mark.parametrize("solver", ["feedback-nash", "feedback-stackelberg",
                                    "openloop-stackelberg"])
def test_a_failing_stage_of_a_time_consistency_re_solve(solver, eager):
    # every tail from stages 1..3 meets the zero stage-3 system, the tails
    # from 4 and 5 do not; the open-loop Stackelberg check re-solves the
    # whole game once and fails where its solver fails, while the feedback
    # certificates solve no stage system
    spec, x0 = stage_games(singular=(3,))
    good, _ = stage_games()
    row = SOLVERS[solver]
    sol = row.solve(good, x0)

    if row.pattern == FEEDBACK:
        with unchecked(verify):
            assert verify.time_consistency(spec, sol, FEEDBACK).verdict == "STC"
        return

    def run():
        with unchecked(verify), pytest.raises(SingularSystemError) as failed:
            verify.time_consistency(spec, sol, row.pattern)
        return failed.value

    error = run()
    assert error.context == "stage 3 control weight R^00"
    assert str(error) == str(failure(solver, spec, x0))
    eager()
    assert str(run()) == str(error)


@pytest.mark.parametrize("scenario", [dict(singular=(1, 3)), dict(nan_drift=(4,)),
                                      dict(singular=(1,), nan_drift=(4,)), dict(inf_drift=(4,))],
                         ids=["two-singular", "nan", "nan-after-singular", "inf"])
@pytest.mark.parametrize("solver", list(SOLVERS))
def test_a_failing_sweep_warns_nothing(solver, scenario):
    # the stages after a failed solve run on what it left: zero pivots,
    # NaN, and from an infinite drift inf - inf
    spec, x0 = stage_games(T=8, n=1 if solver == "lqr" else 2, **scenario)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        failure(solver, spec, x0)
    assert caught == []


def overflowing(solver, T=1, at=0):
    """A finite game of the solver's size whose stage-``at`` dynamics, 1e200,
    overflow the values the sweep carries back from that stage."""
    spec, x0 = stage_games(T=T, n=PLAYERS[solver])
    stages = list(spec.stages)
    stages[at] = replace(stages[at], A=np.array([[1e200]]))
    return replace(spec, stages=tuple(stages)), x0


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_an_overflow_no_solve_reads_is_still_reported(solver, eager):
    # the stage-0 values feed no stage solve, so no test refuses them: the
    # overflow is reported as testing each call at once reported it
    spec, x0 = overflowing(solver)
    with unchecked(*ALL_SOLVERS):
        with pytest.warns(RuntimeWarning, match="^overflow encountered in a backward sweep$"):
            SOLVERS[solver].solve(spec, x0)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="^overflow"):
            SOLVERS[solver].solve(spec, x0)
        eager()
        with pytest.warns(RuntimeWarning, match="^overflow encountered in"):
            SOLVERS[solver].solve(spec, x0)


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_an_overflow_before_the_failing_call_is_reported_before_its_error(solver, eager):
    # stage 5's values overflow to inf, on which stage 4's system fails
    spec, x0 = overflowing(solver, T=6, at=5)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = failure(solver, spec, x0)
        return error, sorted({str(w.message).split(" encountered")[0] for w in caught})

    error, events = run()
    assert str(error).startswith("stage 4") and "overflow" in events
    eager()
    again, eager_events = run()
    assert (str(again), events) == (str(error), eager_events)


# ---------------------------------------------------------------------------
# The recorder itself

SITE = Site("test system", "the test system failed")


def draw(seed, n, k=2, r=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k, k)) + 3 * np.eye(k), rng.standard_normal((n, k, r))


def test_first_failing_call_wins_over_later_pivot_failures():
    checks = Checks(3)
    A, B = draw(1, 3)
    B[0, 0] = np.nan          # call 0, stage 9: residual failure
    A[1] = A[2] = 0.0         # calls 1 and 2, stages 8 and 7: pivot failures
    for i, t in enumerate((9, 8, 7)):
        checks.solve(A[i:i + 1], B[i:i + 1], site=SITE, stage=t)
    with pytest.raises(SingularSystemError) as failed:
        checks.check()
    assert str(failed.value).startswith("stage 9: the test system failed (stage 9 test system: "
                                        "solution residual nan")
    assert isinstance(failed.value.__cause__, SingularSystemError)
    assert failed.value.__cause__.context == "stage 9 test system"


def test_within_a_call_the_pivot_failure_comes_first_at_its_largest_lane():
    checks = Checks()
    A, B = draw(2, 5)
    B[4, 0] = np.nan          # lane 4: residual failure
    A[1] = A[3] = 0.0         # lanes 1 and 3: pivot failures
    checks.solve(A, B, context=lambda i: f"lane {i}")
    with pytest.raises(SingularSystemError, match=r"^lane 3: matrix is singular"):
        checks.check()


def test_calls_past_the_rows_are_tested_in_chunks_in_call_order():
    # two rows per site: the third call tests the first two at once
    A, B = draw(4, 6)
    B[1, 0] = np.nan
    checks = Checks(2)
    checks.solve(A[:1], B[:1], site=SITE, stage=5)
    checks.solve(A[1:2], B[1:2], site=SITE, stage=4)
    with pytest.raises(SingularSystemError, match=r"^stage 4: "):
        checks.solve(A[2:3], B[2:3], site=SITE, stage=3)
    # a failure in a later chunk waits for the check, and only the calls
    # kept since the last chunk are tested again
    checks = Checks(2)
    for i, t in enumerate((5, 4, 3, 2)):
        if t == 2:
            A[i] = 0.0
        checks.solve(A[i:i + 1], B[i:i + 1] if t != 4 else np.ones((1, 2, 1)), site=SITE, stage=t)
    with pytest.raises(SingularSystemError, match=r"^stage 2: "):
        checks.check()


def test_a_passing_recorder_returns_the_eager_solutions():
    A, B = draw(5, 4, k=3, r=2)
    checks = Checks(4)
    X = [checks.solve(A[i:i + 1], B[i:i + 1], site=SITE, stage=i).copy() for i in range(4)]
    checks.check()
    assert np.array_equal(np.concatenate(X), ref.solve_dense(A, B))


def test_a_site_refuses_systems_of_another_shape():
    checks = Checks(4)
    A, B = draw(6, 1)
    checks.solve(A, B, site=SITE, stage=1)
    with pytest.raises(ValueError, match="do not fit"):
        checks.solve(A, np.ones((1, 2, 3)), site=SITE, stage=0)
