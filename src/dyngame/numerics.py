"""Dense linear algebra helpers: checked solves and symmetry tests.

Everything here is a thin, contract-enforcing wrapper around numpy and
LAPACK dense routines.  Matrices at the intended scale are tiny (state and
control dimensions of a few tens at most), so a direct LU solve with
partial pivoting is used throughout; no iterative refinement.

Each solve takes one square matrix or a stack of them, A (N, k, k) with
right-hand sides B (N, k) or (N, k, r), and solves every matrix of the
stack on its own: one LAPACK call per matrix, ``dgesv`` for
:func:`solve_dense`, ``dgetrf`` and ``dgetrs`` for :func:`factor` and
:meth:`LU.solve`.  These are the routines behind
``scipy.linalg.lu_factor``/``lu_solve``, called through
``scipy.linalg.lapack`` without those functions' per-call argument
handling, which at these sizes costs several times the factorisation
itself.  The pivot and residual tests then run once over the whole stack,
each matrix judged against its own norm, so a badly scaled matrix neither
hides nor condemns its neighbours.  A single matrix is the stack of one.
``scipy.linalg`` is imported on the first factorisation, not with this
module: it is about half the import time of the command line, which
validating a game never needs.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import InvalidGameError, SingularSystemError

#: Relative pivot threshold below which a system is reported singular.
PIVOT_RTOL = 1e-12

#: Relative residual bound guaranteed by solve_dense.
RESIDUAL_RTOL = 1e-10

#: Symmetry repair tolerance: asymmetry up to this (relative) size is
#: averaged away, anything larger is an error.  Serialization round trips
#: introduce last-bit asymmetry, which this absorbs.
SYMMETRY_RTOL = 1e-9

#: What a failure names: the system being solved, or for a stack a function
#: of the index of the failing matrix giving that name.
Context = str | Callable[[int], str] | None


def solve_dense(A: np.ndarray, B: np.ndarray, context: Context = None) -> np.ndarray:
    """Solve A @ X = B for a square A, or for each matrix of a stack A
    (N, k, k) and its right-hand sides B (N, k) or (N, k, r), with
    partial-pivoting LU, one ``dgesv`` per matrix.

    Raises :class:`SingularSystemError` (naming ``context``) when a pivot
    of some A_i falls below ``PIVOT_RTOL * max|A_i|`` or its solution fails
    the residual bound ``||A_i X_i - B_i|| <= RESIDUAL_RTOL * (1 + ||A_i||
    ||X_i||)``, which a NaN in B_i or X_i fails too.  The pivot test runs
    over the whole stack before any residual is formed; of several matrices
    failing a test it reports the one of largest index, the stage a
    backward sweep over a stack of stages would reach first.  ``context``
    may be a function of that index.  The result equals :func:`factor`
    followed by :meth:`LU.solve` bit for bit.
    """
    A, stack, mats = _matrices(A)
    B, rhs, sides = _right_sides(A, B)
    gesv = _lapack()[2]
    pivots, xs = [], []
    for a, b in zip(mats, sides):
        # An empty A has no pivot, which the pivot test refuses.
        lu, _, x, _ = gesv(a, b) if a.size else (a, None, b, 0)
        pivots.append(lu.diagonal())
        xs.append(x)
    norm = _check_pivots(stack, pivots, context)
    return _check_residuals(stack, norm, xs, rhs, context).reshape(B.shape)


class LU:
    """The partial-pivoting LU factorisations of a square matrix, or of each
    matrix of a stack, whose pivots passed the singularity test of
    :func:`factor`.  Each :meth:`solve` reuses them and checks its own
    residuals."""

    __slots__ = ("A", "norm", "_factors")

    def __init__(self, A: np.ndarray, norm: list[float], factors: list):
        self.A, self.norm, self._factors = A, norm, factors

    def solve(self, B: np.ndarray, context: Context = None) -> np.ndarray:
        """X with A @ X = B, for each matrix of the stack, refused as in
        :func:`solve_dense` when it fails the residual bound."""
        B, rhs, sides = _right_sides(self.A, B)
        getrs = _lapack()[1]
        xs = [getrs(lu, piv, b)[0] for (lu, piv), b in zip(self._factors, sides)]
        stack = self.A if self.A.ndim == 3 else self.A[None]
        return _check_residuals(stack, self.norm, xs, rhs, context).reshape(B.shape)


def factor(A: np.ndarray, context: Context = None) -> LU:
    """The LU factorisation of a square A, or of each matrix of a stack A
    (N, k, k), one ``dgetrf`` per matrix; raises
    :class:`SingularSystemError` as :func:`solve_dense` does when a pivot
    of some A_i falls below ``PIVOT_RTOL * max|A_i|``."""
    A, stack, mats = _matrices(A)
    getrf = _lapack()[0]
    factors, pivots = [], []
    for a in mats:
        lu, piv, _ = getrf(a) if a.size else (a, None, 0)
        factors.append((lu, piv))
        pivots.append(lu.diagonal())
    norm = _check_pivots(stack, pivots, context)
    return LU(A, norm, factors)


def _matrices(A):
    """A as a float array, as a stack (N, k, k), and as the sequence of its
    matrices (a lone matrix itself, not a view of the stack)."""
    A = np.asarray(A, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise InvalidGameError(
            f"solve_dense needs a square matrix or a stack of them, got shape {A.shape}")
    return (A, A, A) if A.ndim == 3 else (A, A[None], (A,))


def _right_sides(A: np.ndarray, B):
    """B as a float array, as a stack (N, k, r) fitting the stack of A, and
    as one right-hand side per matrix of A."""
    B = np.asarray(B, dtype=float)
    if B.ndim not in (A.ndim - 1, A.ndim) or B.shape[:A.ndim - 1] != A.shape[:-1]:
        raise InvalidGameError(
            f"right-hand side of shape {B.shape} does not fit a system of shape {A.shape}")
    if A.ndim == 3:
        rhs = B if B.ndim == 3 else B[..., None]
        return B, rhs, rhs
    return B, (B if B.ndim == 2 else B[:, None])[None], (B,)


def _check_pivots(stack: np.ndarray, pivots: list[np.ndarray], context: Context) -> list[float]:
    """Each matrix's norm max|A_i|, once the smallest of every matrix's LU
    pivots in ``pivots`` passed ``PIVOT_RTOL`` times it."""
    norm = np.maximum.reduce(np.abs(stack), axis=(1, 2), initial=0.0).tolist()
    diag = pivots[0][None] if len(pivots) == 1 else np.array(pivots).reshape(stack.shape[:2])
    pivot = np.minimum.reduce(np.abs(diag), axis=1, initial=np.inf).tolist()
    for i in range(len(norm) - 1, -1, -1):
        # An empty A has no pivot: inf fails, as does a NaN.
        if not PIVOT_RTOL * max(norm[i], 1e-300) < pivot[i] < math.inf:
            cond = _condition_estimate(stack[i])
            raise SingularSystemError(
                f"matrix is singular to working precision (cond ~ {cond:.2e})",
                context=_name(context, i), cond_estimate=cond)
    return norm


def _check_residuals(stack: np.ndarray, norm: list[float], xs: list[np.ndarray],
                     rhs: np.ndarray, context: Context) -> np.ndarray:
    """The solutions ``xs`` as one array shaped as ``rhs``, once none fails
    the residual bound; a NaN residual fails it too."""
    X = (xs[0] if len(xs) == 1 else np.array(xs)).reshape(rhs.shape)
    R = stack @ X
    R -= rhs
    residual = np.maximum.reduce(np.abs(R, out=R), axis=(1, 2), initial=0.0).tolist()
    size = np.maximum.reduce(np.abs(X), axis=(1, 2), initial=0.0).tolist()
    for i in range(len(norm) - 1, -1, -1):
        bound = RESIDUAL_RTOL * (1.0 + norm[i] * size[i])
        if not residual[i] <= bound:
            cond = _condition_estimate(stack[i])
            raise SingularSystemError(
                f"solution residual {residual[i]:.2e} exceeds bound {bound:.2e} "
                f"(cond ~ {cond:.2e})",
                context=_name(context, i), cond_estimate=cond)
    return X


def _name(context: Context, index: int) -> str | None:
    return context(index) if callable(context) else context


_LAPACK: tuple = ()


def _lapack() -> tuple:
    """LAPACK's (dgetrf, dgetrs, dgesv), imported on the first call."""
    global _LAPACK
    if not _LAPACK:
        from scipy.linalg.lapack import dgesv, dgetrf, dgetrs
        _LAPACK = (dgetrf, dgetrs, dgesv)
    return _LAPACK


def _condition_estimate(A: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(A, 1))
    except np.linalg.LinAlgError:
        return float("inf")


def asymmetry(M: np.ndarray, rtol: float) -> tuple[float, bool]:
    """Max entrywise gap |M - M'| of a square M, and whether it exceeds the
    relative tolerance ``rtol * (1 + max|M|)``.

    The gap is formed from halves, 0.5 M - 0.5 M', and doubled as a Python
    float: finite weights of opposite sign near the float range do not
    overflow, and a gap past that range reads inf."""
    half = np.abs(0.5 * M - 0.5 * M.T).max(initial=0.0)
    return 2.0 * float(half), bool(half > 0.5 * rtol * (1.0 + np.abs(M).max(initial=0.0)))
