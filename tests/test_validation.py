"""Game validation over the laid-out stage data.

``validate`` lays each distinct StageData object out once, checking shapes,
and runs the finiteness, symmetry and definiteness checks once per field
of the layout, with one ``eigvalsh`` call per matrix size.  These tests pin
its violations, entry for entry and word for word, to the per-matrix loop
in ``reference_formulations`` over a seeded family of malformed games, each
validated afresh (``test_validation_properties`` covers both mode orders on
one game), check that non-finite data and a tolerance that is not a finite
real number are input errors, and guard that the eigenvalue calls are one
per matrix size whatever the players and the horizon.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from dyngame import feedback_nash
from dyngame.errors import InvalidGameError
from dyngame.game import GameSpec, StageArrays, constant_game, require_valid, validate

import reference_formulations as ref
from conftest import psd_matrix, random_game, rng_for, scalar_unit_two_player


def _player(st, rng):
    return int(rng.integers(len(st.Q)))


def _replace_in(items, index, value):
    return items[:index] + (value,) + items[index + 1:]


def _replace_weight(st, i, j, R_ij):
    return replace(st, R=_replace_in(st.R, i, _replace_in(st.R[i], j, R_ij)))


def _bad_shapes(st, rng):
    """One wrong shape or count in every field of the stage."""
    i = _player(st, rng)
    n, p = len(st.Q), st.A.shape[0]
    field = ("A", "B", "B/i", "s", "Q", "Q/i", "R", "R/i", "R/i/j", "x_target",
             "x_target/i", "u_target", "u_target/i/j")[int(rng.integers(13))]
    j = int(rng.integers(n))
    m = st.R[j][j].shape[0]
    if field == "A":
        return replace(st, A=np.eye(p + 1))
    if field == "B":
        return replace(st, B=st.B[:-1])
    if field == "B/i":
        return replace(st, B=_replace_in(st.B, i, np.ones((p, st.B[i].shape[1] + 1))))
    if field == "s":
        return replace(st, s=np.zeros(p + 1))
    if field == "Q":
        return replace(st, Q=st.Q + (np.eye(p),))
    if field == "Q/i":
        return replace(st, Q=_replace_in(st.Q, i, np.eye(p)[:, :-1] if p > 1 else np.eye(2)))
    if field == "R":
        return replace(st, R=st.R[:-1])
    if field == "R/i":
        return replace(st, R=_replace_in(st.R, i, st.R[i][:-1]))
    if field == "R/i/j":
        return _replace_weight(st, i, j, np.eye(m + 1))
    if field == "x_target":
        return replace(st, x_target=st.x_target + (np.zeros(p),))
    if field == "x_target/i":
        return replace(st, x_target=_replace_in(st.x_target, i, np.zeros(p + 1)))
    if field == "u_target":
        return replace(st, u_target=st.u_target[:-1])
    return replace(st, u_target=_replace_in(
        st.u_target, i, _replace_in(st.u_target[i], j, np.zeros(m + 2))))


def _asymmetric(st, rng):
    """Q^i or R^{ij} asymmetric by 1e-7 (beyond tol 1e-9 only) or 1e-3."""
    n = len(st.Q)
    weights = [("Q", i, None, Q) for i, Q in enumerate(st.Q) if len(Q) > 1]
    weights += [("R", i, j, st.R[i][j]) for i in range(n) for j in range(n) if len(st.R[i][j]) > 1]
    if not weights:  # every weight is a scalar
        return _indefinite_state_weight(st, rng)
    field, i, j, M = weights[int(rng.integers(len(weights)))]
    M = M.copy()
    M[0, -1] += (1e-7, 1e-3)[int(rng.integers(2))] * (1 + np.abs(M).max())
    if field == "Q":
        return replace(st, Q=_replace_in(st.Q, i, M))
    return _replace_weight(st, i, j, M)


def _indefinite_state_weight(st, rng):
    """Q^i with its smallest eigenvalue moved to -5e-7 (below -1e-9 only)
    or well below zero."""
    i = _player(st, rng)
    Q = st.Q[i]
    target = (-5e-7, -float(rng.uniform(0.01, 2.0)))[int(rng.integers(2))]
    return replace(st, Q=_replace_in(
        st.Q, i, Q + (target - np.linalg.eigvalsh(Q).min()) * np.eye(len(Q))))


def _singular_own_weight(st, rng):
    """R^{ii} positive semidefinite but singular, or indefinite."""
    i = _player(st, rng)
    m = st.R[i][i].shape[0]
    R = (np.zeros((m, m)), -psd_matrix(rng, m, shift=0.1))[int(rng.integers(2))]
    return _replace_weight(st, i, i, R)


def _indefinite_leader_cross_weight(st, rng):
    """R^{1j}, j > 1, indefinite: a violation under ``for_stackelberg`` only."""
    n = len(st.Q)
    if n == 1:
        return _singular_own_weight(st, rng)
    j = 1 + int(rng.integers(n - 1))
    m = st.R[0][j].shape[0]
    return _replace_weight(st, 0, j, -psd_matrix(rng, m, shift=0.1))


def _non_finite(st, rng):
    """NaN or Inf in one entry of one array."""
    value = (np.nan, np.inf, -np.inf)[int(rng.integers(3))]
    field = ("A", "B", "s", "Q", "R", "x_target", "u_target")[int(rng.integers(7))]
    i = _player(st, rng)
    j = int(rng.integers(len(st.Q)))

    def spoiled(arr):
        arr = arr.copy()
        arr.flat[int(rng.integers(arr.size))] = value
        return arr

    if field in ("A", "s"):
        return replace(st, **{field: spoiled(getattr(st, field))})
    if field in ("B", "Q", "x_target"):
        arrays = getattr(st, field)
        return replace(st, **{field: _replace_in(arrays, i, spoiled(arrays[i]))})
    if field == "R":
        return _replace_weight(st, i, j, spoiled(st.R[i][j]))
    return replace(st, u_target=_replace_in(
        st.u_target, i, _replace_in(st.u_target[i], j, spoiled(st.u_target[i][j]))))


MALFORMATIONS = (_bad_shapes, _asymmetric, _indefinite_state_weight, _singular_own_weight,
                 _indefinite_leader_cross_weight, _non_finite)


def malformed_game(seed) -> GameSpec:
    """A random game, broadcast or time-varying, with one to four
    malformations.  A spoiled stage of a broadcast game is sometimes the
    shared object itself, so its violations repeat at every stage."""
    rng = rng_for(seed)
    spec = random_game(seed, horizon=int(rng.integers(2, 6)), time_varying=bool(seed % 2))
    stages = list(spec.stages)
    for _ in range(int(rng.integers(1, 5))):
        t = int(rng.integers(len(stages)))
        old = stages[t]
        try:
            new = MALFORMATIONS[int(rng.integers(len(MALFORMATIONS)))](old, rng)
        except IndexError:  # an earlier malformation removed what this one changes
            continue
        if rng.integers(2):
            stages = [new if st is old else st for st in stages]
        else:
            stages[t] = new
    return replace(spec, stages=tuple(stages))


FAMILY = range(120)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, -1e-6])
@pytest.mark.parametrize("for_stackelberg", [False, True])
def test_violations_equal_the_per_matrix_loop(tol, for_stackelberg):
    kinds = set()
    for seed in FAMILY:
        spec = malformed_game(seed)
        report = validate(spec, tol=tol, for_stackelberg=for_stackelberg)
        assert report.violations == ref.validate(spec, tol=tol,
                                                 for_stackelberg=for_stackelberg).violations
        kinds.update(v.message.split(" (")[0].split(",")[0] for v in report.violations)
        # one stage reports a location at most once: a repeat is a shared
        # StageData object reported at each of its stages
        located = [(v.location.split("/", 2)[-1], v.message) for v in report.violations]
        if len(set(located)) < len(located):
            kinds.add("repeated")
    # the family reaches every kind of violation
    assert {"not finite", "not symmetric", "not positive semidefinite",
            "not positive definite", "expected shape", "repeated"} <= kinds
    assert any(k.startswith("expected an ") for k in kinds)  # a wrong table
    assert any(k.split()[1].isdigit() for k in kinds if k.startswith("expected "))  # a wrong count


def test_the_unchecked_view_raises_the_shape_violations():
    """``StageArrays.of`` stacks as ``validate`` does and refuses a game
    with exactly ``validate``'s violations of shape and count.  Such a game
    keeps the StageData objects it was given; any other holds its own."""
    refused = 0
    for seed in FAMILY:
        spec = malformed_game(seed)
        shapes = [m for m in validate(spec).messages() if ": expected " in m]
        kept = [a is b for a, b in zip(replace(spec).stages, spec.stages)]
        assert all(kept) if shapes else not any(kept), seed
        if shapes:
            refused += 1
            with pytest.raises(InvalidGameError) as info:
                StageArrays.of(spec)
            assert info.value.violations == shapes
        else:
            assert StageArrays.of(spec).A.shape == (spec.horizon, spec.state_dim, spec.state_dim)
    assert 0 < refused < len(FAMILY)


def test_tolerance_and_leader_mode_change_the_family_verdicts():
    """The family has violations that only the tighter tolerance and only
    the Stackelberg mode report, so both comparisons above test them."""
    def count(tol, for_stackelberg):
        return sum(len(validate(malformed_game(seed), tol=tol,
                                for_stackelberg=for_stackelberg).violations)
                   for seed in FAMILY)
    assert count(1e-9, False) > count(1e-6, False)
    assert count(1e-9, True) > count(1e-9, False)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
def test_non_finite_tolerance_is_refused(tol):
    spec = scalar_unit_two_player()
    with pytest.raises(InvalidGameError, match="tol must be finite"):
        validate(spec, tol=tol)
    with pytest.raises(InvalidGameError, match="tol must be finite"):
        require_valid(spec, tol=tol)


@pytest.mark.parametrize("tol", [None, "1e-9", [1e-9], True, False, np.bool_(True), 1e-9j])
def test_a_tolerance_that_is_not_a_real_number_is_refused(tol):
    # a bool would read as 1.0 or 0.0, and the rest ended in a bare TypeError
    spec = scalar_unit_two_player()
    for check in (validate, require_valid):
        with pytest.raises(InvalidGameError, match="tol must be a real number"):
            check(spec, tol=tol)


def test_integer_and_numpy_tolerances_are_real_numbers():
    spec = scalar_unit_two_player()
    for tol in (0, 1, np.int64(0), np.float32(1e-6)):
        assert validate(spec, tol=tol) == ref.validate(spec, tol=float(tol))
    with pytest.raises(InvalidGameError, match="tol must be finite"):
        validate(spec, tol=10 ** 400)  # beyond the float range


def test_negative_tolerance_is_not_refused():
    # a negative tol is the looser definiteness bound; symmetry is held to |tol|
    report = validate(scalar_unit_two_player(), tol=-1e-6)
    assert not any("definite" in message or "symmetric" in message
                   for message in report.messages())
    skewed = np.array([[1.0, 1e-3], [0.0, 1.0]])
    spec = constant_game(A=np.eye(2), B=[np.ones((2, 1))], Q=[skewed], R=[[np.eye(1)]], T=1)
    assert validate(spec, tol=-1e-6).messages() == [
        "stages/0/Q/0: not symmetric (max asymmetry 1.00e-03)"]


def test_shared_stage_violations_repeat_at_every_stage():
    spec = scalar_unit_two_player(T=4)
    st = spec.stages[0]
    bad = _replace_weight(st, 1, 1, np.array([[0.0]]))
    messages = validate(replace(spec, stages=(bad,) * 4)).messages()
    assert messages == [f"stages/{t}/R/1/1: not positive definite (min eigenvalue 0.000e+00)"
                        for t in range(4)]


@pytest.mark.parametrize("field, location", [("s", "s"), ("Q", "Q/0"), ("B", "B/1")])
def test_non_finite_stage_data_is_an_input_error(field, location):
    spec = scalar_unit_two_player(T=3)
    st = spec.stages[0]
    if field == "s":
        bad = replace(st, s=np.array([np.nan]))
    elif field == "Q":
        bad = replace(st, Q=(np.array([[np.nan]]), st.Q[1]))
    else:
        bad = replace(st, B=(st.B[0], np.array([[np.inf]])))
    spec = replace(spec, stages=(st, bad, st))
    assert validate(spec).messages() == [f"stages/1/{location}: not finite"]
    with pytest.raises(InvalidGameError, match="not finite"):
        feedback_nash.solve(spec)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_building_a_stage_with_non_finite_weights_is_silent(value):
    spec = random_game(3, n_players=2, state_dim=2, horizon=2)
    st = spec.stages[0]
    Q, R = st.Q[1].copy(), st.R[0][0].copy()
    Q[0, 1] = R[0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad = replace(st, Q=(st.Q[0], Q), R=((R,) + st.R[0][1:],) + st.R[1:])
        messages = validate(replace(spec, stages=(st, bad))).messages()
    assert messages == ["stages/1/Q/1: not finite", "stages/1/R/0/0: not finite"]


@pytest.mark.parametrize("weight, shown", [
    # the symmetric part of M + M' overflows here, its halves do not
    ([[1e308, 1e308], [1e308, 1.0]], "-6.180e+307"),
    # a finite matrix whose smallest eigenvalue overflows
    ([[-1.7e308, -1.7e308], [-1.7e308, -1.7e308]], "not finite"),
])
def test_weights_near_the_float_range_report_no_nan_eigenvalue(weight, shown):
    spec = random_game(3, n_players=2, state_dim=2, horizon=1)
    st = spec.stages[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = replace(spec, stages=(replace(st, Q=(np.array(weight), st.Q[1])),))
        messages = validate(spec).messages()
    assert messages == [f"stages/0/Q/0: not positive semidefinite (min eigenvalue {shown})"]
    assert messages == ref.validate(spec).messages()


def test_opposite_weights_near_the_float_range_are_asymmetric_without_overflow():
    # M - M' overflows for these finite entries; the gap of the halves does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = constant_game(A=[[1.0, 0.0], [0.0, 1.0]], B=[[[1.0], [0.0]]],
                             Q=[[[1.0, 1e308], [-1e308, 1.0]]], R=[[[[1.0]]]], T=2)
        messages = validate(spec).messages()
        assert messages == ref.validate(spec).messages()
    assert len(messages) == 2
    assert all(m.startswith(f"stages/{t}/Q/0: not symmetric")
               for t, m in enumerate(messages))


def _eigvalsh_calls(monkeypatch, spec, **kwargs):
    """Batch sizes of every ``np.linalg.eigvalsh`` call one validate makes."""
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kw):
        sizes.append(1 if np.ndim(a) == 2 else len(a))
        return eigvalsh(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert validate(spec, **kwargs).ok
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("leader_first", [False, True])
def test_eigenvalue_calls_are_one_per_matrix_size(monkeypatch, n, leader_first):
    """Whatever n and T, one validate makes at most one ``eigvalsh`` call
    per distinct matrix size, over every Q^i and R^{ii} of each distinct
    StageData, and leader mode's R^{0j} with them when it runs first, or
    alone on a game already validated plainly."""
    for time_varying in (False, True):
        for T in (5, 50):
            for dims in ([2] * n, [1, 2, 3][:n]):
                spec = random_game(7, n_players=n, state_dim=2, control_dims=dims, horizon=T,
                                   time_varying=time_varying)
                K, sizes = T if time_varying else 1, len({2, *dims})
                first = _eigvalsh_calls(monkeypatch, spec, for_stackelberg=leader_first)
                second = _eigvalsh_calls(monkeypatch, spec, for_stackelberg=not leader_first)
                assert len(first) <= sizes and len(second) <= len(set(dims[1:]))
                assert sum(first) == K * (2 * n + (n - 1) * leader_first)
                assert sum(second) == (0 if leader_first else K * (n - 1))
