"""Dense linear algebra helpers: checked solves and symmetry tests.

Everything here is a thin, contract-enforcing wrapper around numpy and
LAPACK dense routines.  Matrices at the intended scale are tiny (state and
control dimensions of a few tens at most), so a direct solve by Gaussian
elimination with partial pivoting is used throughout; no iterative
refinement.

There is one checked solve, :meth:`Checks.solve`.  It takes one square
matrix or a stack of them, A (N, k, k) with right-hand sides B (N, k) or
(N, k, r), and solves every matrix of the stack on its own with one
LAPACK ``dgesv`` (elimination with partial pivoting to P A = L U, then
the two triangular solves), the routine behind ``scipy.linalg.solve``,
called without that function's per-call argument handling, which at
these sizes costs several times the factorisation itself.  The pivot test and, after it, the residual test
then judge each matrix against its own norm, so a badly scaled matrix
neither hides nor condemns its neighbours.  A single matrix is the stack
of one.

When the tests run: a backward sweep solves each stage's systems with the
bare LAPACK calls of a :class:`Checks`, and tests them after the stage
loop, one stack per call site, or earlier when a site's capped stack is
full.  The tests are a dozen numpy calls whatever the stack's size,
several times the LAPACK call on a stage's small system (23 of the 26 us
of a 9 x 9 solve with 11 right-hand sides tested at once, on a 2-vCPU
Intel Xeon x86-64 host, where the recorder's call with its share of the
test takes 7.7 us), so testing each stage as it is solved cost most of a
sweep's solve time.  The bounds are the same, every system is tested, and a failure
reports what testing each call at once would have: the first failing
call in sweep order.  To solve and test at once, make a :class:`Checks`
of one call and :meth:`Checks.check` it.

The routine comes from scipy's compiled wrapper ``scipy.linalg._flapack``,
loaded by file path on the first solve (:func:`_lapack`): it needs
only numpy, while importing the ``scipy.linalg`` package would take half
of a cold ``dyngame solve``.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import InvalidGameError, SingularSystemError

#: Relative pivot threshold below which a system is reported singular.
PIVOT_RTOL = 1e-12

#: Relative residual bound guaranteed by a checked solve.
RESIDUAL_RTOL = 1e-10

#: Symmetry repair tolerance: asymmetry up to this (relative) size is
#: averaged away, anything larger is an error.  Serialization round trips
#: introduce last-bit asymmetry, which this absorbs.
SYMMETRY_RTOL = 1e-9

#: The bytes a call site's stack of systems may take in a :class:`Checks`;
#: a full stack is tested before it takes more.
_ROWS_BYTES = 1 << 17

#: The floating-point event of each flag numpy passes an error callback,
#: by its name in ``np.geterr()``.
_EVENTS = {1: "divide", 2: "over", 4: "under", 8: "invalid"}

#: What a failure names: the system being solved, or for a stack a function
#: of the index of the failing matrix giving that name.
Context = str | Callable[[int], str] | None


class Site(NamedTuple):
    """A call site of a backward sweep, which solves one stack of systems
    per stage.  Its failure at stage t is named ``stage t <name>``; with a
    ``reason`` it is reported as ``stage t: <reason> (<that failure>)``."""

    name: str
    reason: str | None = None


class Checks:
    """The checked solves of one backward sweep, tested after its stage loop.

    :meth:`solve` calls the bare LAPACK routine at once and keeps each
    system it solved; :meth:`check` runs the pivot and residual tests over
    them, one stack per call site (the module docstring says why).  It
    raises what the first failing call would have raised at once: its pivot
    failure before its residual failure, and of several failing matrices of
    its stack the one of largest index.  A sweep runs in :meth:`sweep`,
    which calls :meth:`check` when the stage loop is done.

    A call names its failure by ``context``, or as ``stage`` of a
    :class:`Site`.  A site's calls share one preallocated stack of at most
    ``rows`` systems, the most that site solves in the sweep, and at most
    ``_ROWS_BYTES``; a full stack is tested, with every other call kept so
    far, before it takes more.  Any other call is a stack of its own.
    """

    __slots__ = ("rows", "_stacks", "_calls", "_tested", "_modes", "_events")

    def __init__(self, rows: int = 0):
        self.rows = rows
        self._stacks: dict = {}  # per site, or per call of no site: its stack
        self._calls: list = []  # per call: (context, site, stage, its stack, first row, end)
        self._tested = 0  # the calls tested so far
        self._modes: dict = {}  # np.geterr() outside the sweep
        self._events: dict = {}  # per floating-point event: the calls made before its first

    @classmethod
    @contextlib.contextmanager
    def sweep(cls, rows: int):
        """The recorder of a backward sweep in which each call site solves
        at most ``rows`` systems, checked when the with-block ends without
        an error.

        Until then the sweep runs on what a failed solve left, so a
        floating-point event is recorded instead of reported: :meth:`check`
        reports those that testing each call at once would have met, all
        of them if no call fails and else those before the first failing
        call, as ``np.geterr()`` outside the sweep asks (a non-finite
        solution itself fails the residual test)."""
        checks = cls(rows)
        checks._modes = np.geterr()
        with np.errstate(call=checks._record_event,
                         **{event: "ignore" if mode == "ignore" else "call"
                            for event, mode in checks._modes.items()}):
            yield checks
        checks.check()

    def solve(self, A: np.ndarray, B: np.ndarray, context: Context = None,
              site: Site | None = None, stage: int | None = None) -> np.ndarray:
        """X with A @ X = B, one ``dgesv`` per matrix of the stack, refused
        by :meth:`check` with :class:`SingularSystemError` (naming
        ``context``, a name or a function of the failing matrix's index)
        when a pivot of some A_i falls below ``PIVOT_RTOL * max|A_i|`` or
        its solution fails the residual bound ``||A_i X_i - B_i|| <=
        RESIDUAL_RTOL * (1 + ||A_i|| ||X_i||)``, which a NaN in B_i or X_i
        fails too.  A call copies A and B into the next rows of its stack
        and solves each row there; the result stays there for the tests:
        do not write into it, and copy it before the site's next call."""
        A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
            raise InvalidGameError(
                f"a solve needs a square matrix or a stack of them, got shape {A.shape}")
        if B.ndim not in (A.ndim - 1, A.ndim) or B.shape[:A.ndim - 1] != A.shape[:-1]:
            raise InvalidGameError(
                f"right-hand side of shape {B.shape} does not fit a system of shape {A.shape}")
        vector = B.ndim < A.ndim
        n, k, r = len(A) if A.ndim == 3 else 1, A.shape[-1], 1 if vector else B.shape[-1]
        rows = self._stacks.get(site)
        if rows is None or rows.used + n > rows.size or rows.k != k or rows.r != r:
            rows = self._rows(n, k, r, site)
        j = rows.used
        rows.used = end = j + n
        self._calls.append((context, site, stage, rows, j, end))
        at = slice(j, end) if A.ndim == 3 else j  # the call's rows, or its one row
        rows.A[at] = A
        rows.B[at] = B[..., None] if vector else B
        gesv = _LAPACK or _lapack()
        for i in range(j, end):
            # An empty A has no pivot, which the pivot test refuses.
            u, _, x, _ = gesv(rows.A[i], rows.B[i]) if k else (rows.A[i], None, rows.B[i], 0)
            rows.diag[i] = u.diagonal()
            rows.X[i] = x
        return rows.X[at].reshape(B.shape) if vector else rows.X[at]

    def _rows(self, n: int, k: int, r: int, site: Site | None) -> _Rows:
        """The stack for a call of n k x k systems with r right-hand sides
        that its site's stack cannot take now: that stack once every call
        kept so far is tested, if it holds n; else a new one, of the
        sweep's rows or what fits in ``_ROWS_BYTES`` for a site, else of n."""
        rows = self._stacks.get(site)
        if rows is not None:
            if (rows.k, rows.r) != (k, r):
                raise ValueError(f"{site}: systems of shape {(k, k)} and {r} right-hand sides "
                                 f"do not fit a stack of shape {(rows.k, rows.k)} and {rows.r}")
            self._test()
            if n <= rows.size:
                return rows
        row_bytes = 8 * k * (k + 1 + 2 * r) or 8
        size = n if site is None else max(n, min(self.rows, _ROWS_BYTES // row_bytes))
        rows = self._stacks[site if site is not None else len(self._calls)] = _Rows(size, k, r)
        return rows

    def check(self) -> None:
        """Raise the :class:`SingularSystemError` of the first failing call,
        if any call failed: the one test a sweep asks for, after its stage
        loop.  The sweep's floating-point events that testing each call at
        once would have met are reported first."""
        self._test()
        self._report(len(self._calls))

    def _record_event(self, kind: str, flag: int) -> None:
        self._events.setdefault((kind, _EVENTS[flag]), len(self._calls))

    def _report(self, calls: int) -> None:
        """Report each floating-point event first met within the first
        ``calls`` calls, as the error mode outside the sweep asks: raised
        for "raise", else warned."""
        for (kind, event), made in self._events.items():
            if made <= calls:
                message = f"{kind} encountered in a backward sweep"
                if self._modes[event] == "raise":
                    raise FloatingPointError(message)
                warnings.warn(message, RuntimeWarning)

    def _test(self) -> None:
        """Test every call not tested yet: raise the error of the first one
        that fails, if any does, and else empty the stacks."""
        first = None
        with np.errstate(all="ignore"):
            for rows in self._stacks.values():
                tests = rows.tests()
                if tests is not None:
                    call = self._owner(rows, tests[0])
                    if first is None or call < first[0]:
                        first = (call, tests)
        if first is not None:
            self._report(first[0])
            self._raise(*first)
        self._stacks = {key: rows for key, rows in self._stacks.items() if isinstance(key, Site)}
        for rows in self._stacks.values():
            rows.used = 0
        self._tested = len(self._calls)

    def _owner(self, rows: _Rows, i: int) -> int:
        """The call not tested yet that keeps row i of ``rows``."""
        return next(c for c in range(len(self._calls) - 1, self._tested - 1, -1)
                    if self._calls[c][3] is rows and self._calls[c][4] <= i)

    def _raise(self, call: int, tests: tuple) -> None:
        """Raise the error of the given call from its stack's ``tests``: its
        row of largest index failing the pivot test, or, if none of its
        rows does, its row of largest index failing the residual test."""
        context, site, stage, rows, j, end = self._calls[call]
        _, singular, tight, residual, bound = tests
        if singular[j:end].any():
            i = j + int(np.flatnonzero(singular[j:end])[-1])
            message = "matrix is singular to working precision"
        else:
            i = j + int(np.flatnonzero(~tight[j:end])[-1])
            message = (f"solution residual {float(residual[i]):.2e} exceeds bound "
                       f"{float(bound[i]):.2e}")
        cond = _condition_estimate(rows.A[i])
        name = f"stage {stage} {site.name}" if site is not None else _name(context, i - j)
        error = SingularSystemError(f"{message} (cond ~ {cond:.2e})", context=name,
                                    cond_estimate=cond)
        if site is None or site.reason is None:
            raise error
        raise SingularSystemError(f"{site.reason} ({error})", context=f"stage {stage}",
                                  cond_estimate=cond) from error


class _Rows:
    """The preallocated stack of the systems of one call site, or of one
    call: each matrix A, its right-hand side B and solution X, and the
    diagonal of U, its pivots."""

    __slots__ = ("A", "B", "X", "diag", "size", "k", "r", "used")

    def __init__(self, n: int, k: int, r: int):
        self.A, self.B, self.X = np.empty((n, k, k)), np.empty((n, k, r)), np.empty((n, k, r))
        self.diag, self.size, self.k, self.r = np.empty((n, k)), n, k, r
        self.used = 0

    def tests(self):
        """None if every row used passes the pivot and the residual test,
        else the first row that fails, and per row whether it fails the
        pivot test, whether it passes the residual test, its residual and
        its bound."""
        n = self.used
        A = self.A[:n]
        norm = np.maximum.reduce(np.abs(A), axis=(1, 2), initial=0.0)
        # An empty A has no pivot: inf fails, as does a NaN.  A pivot of a
        # nonempty A is inf only if its norm is, which fails too.
        pivot = np.minimum.reduce(np.abs(self.diag[:n]), axis=1, initial=np.inf)
        singular = ~(PIVOT_RTOL * np.maximum(norm, 1e-300) < pivot)
        if not self.k:
            singular[:] = True
        X = self.X[:n]
        R = A @ X
        R -= self.B[:n]
        residual = np.maximum.reduce(np.abs(R, out=R), axis=(1, 2), initial=0.0)
        bound = RESIDUAL_RTOL * (1.0 + norm * np.maximum.reduce(np.abs(X), axis=(1, 2),
                                                                 initial=0.0))
        tight = residual <= bound
        passed = tight & ~singular
        return None if passed.all() else (int(passed.argmin()), singular, tight, residual, bound)


def _name(context: Context, index: int) -> str | None:
    return context(index) if callable(context) else context


_LAPACK = None
_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """LAPACK's ``dgesv`` from ``scipy.linalg._flapack`` on the first call:
    the module already imported, else its file loaded by path and
    registered under its name, else (no file, or it fails to load) the
    module imported through the ``scipy.linalg`` package."""
    global _LAPACK
    if not _LAPACK:
        flapack = sys.modules.get(_FLAPACK)
        if flapack is None and (path := _flapack_file()):
            try:
                spec = importlib.util.spec_from_file_location(_FLAPACK, path)
                flapack = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(flapack)
                sys.modules[_FLAPACK] = flapack
            except (ImportError, OSError):
                flapack = None
        if flapack is None:
            from scipy.linalg import _flapack as flapack
        _LAPACK = flapack.dgesv
    return _LAPACK


def _flapack_file() -> str | None:
    """The path of scipy's ``linalg/_flapack`` extension, found without
    importing scipy, or None."""
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _condition_estimate(A: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(A, 1))
    except np.linalg.LinAlgError:
        return float("inf")


def asymmetry(M: np.ndarray, rtol: float, starts=None) -> tuple[np.ndarray, np.ndarray]:
    """Max entrywise gap |M - M'| of each square matrix of a stack M (...,
    k, k), and whether it exceeds the relative tolerance ``rtol * (1 +
    max|M|)`` of that matrix, both of shape (...); a single matrix gives
    numpy scalars.  With ``starts``, the first rows of the blocks of
    block-diagonal M, per block (..., len(starts)), from column maxima.

    The gap is formed from halves, 0.5 M - 0.5 M', and doubled after the
    test: finite weights of opposite sign near the float range do not
    overflow, and a gap past that range reads inf.  The symmetric part
    0.5 M + 0.5 M' of the callers is formed from halves for the same
    reason."""
    def peak(X):
        return (X.max(axis=(-2, -1), initial=0.0) if starts is None
                else np.maximum.reduceat(X.max(axis=-2), starts, axis=-1))

    halves = 0.5 * M
    gap = halves - halves.swapaxes(-1, -2)  # both reused in place: a stack can be large
    half = peak(np.abs(gap, out=gap))
    too_large = half > 0.5 * rtol * (1.0 + peak(np.abs(M, out=halves)))
    with np.errstate(over="ignore"):
        return 2.0 * half, too_large
