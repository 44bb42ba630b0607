"""Dense linear algebra helpers: solves, symmetry and definiteness tests.

Everything here is a thin, contract-enforcing wrapper around numpy and
LAPACK dense routines.  Matrices at the intended scale are tiny (state and
control dimensions of a few tens at most), so a direct LU solve with
partial pivoting is used throughout; no iterative refinement.  The solve
calls LAPACK's ``dgetrf``/``dgetrs`` through ``scipy.linalg.lapack``: the
routines behind ``scipy.linalg.lu_factor``/``lu_solve``, without those
functions' per-call argument handling, which at these sizes costs several
times the factorisation itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import InvalidGameError, SingularSystemError

#: Relative pivot threshold below which a system is reported singular.
PIVOT_RTOL = 1e-12

#: Relative residual bound guaranteed by solve_dense.
RESIDUAL_RTOL = 1e-10

#: Symmetry repair tolerance: asymmetry up to this (relative) size is
#: averaged away, anything larger is an error.  Serialization round trips
#: introduce last-bit asymmetry, which this absorbs.
SYMMETRY_RTOL = 1e-9


def solve_dense(A: np.ndarray, B: np.ndarray, context: str | None = None) -> np.ndarray:
    """Solve A @ X = B for a square A with partial-pivoting LU.

    Raises :class:`SingularSystemError` (naming ``context``) when a pivot
    falls below ``PIVOT_RTOL * ||A||`` or the solution fails the residual
    bound ``||AX - B|| <= RESIDUAL_RTOL * (1 + ||A|| ||X||)``, which a
    NaN in ``B`` or ``X`` fails too.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidGameError(f"solve_dense needs a square matrix, got shape {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise InvalidGameError(
            f"right-hand side has {B.shape[0]} rows, expected {A.shape[0]}"
        )

    norm_A = np.abs(A).max(initial=0.0)
    # dgetrf reports an exact zero pivot through its status, which the pivot
    # threshold below covers; an empty A, which it would refuse as an
    # illegal argument, has no pivot and fails that threshold too.
    lu, piv, _ = dgetrf(A) if A.size else (A, None, 0)
    min_pivot = np.abs(np.diag(lu)).min(initial=np.inf)
    if not np.isfinite(min_pivot) or min_pivot <= PIVOT_RTOL * max(norm_A, 1e-300):
        cond = _condition_estimate(A)
        raise SingularSystemError(
            f"matrix is singular to working precision (cond ~ {cond:.2e})",
            context=context,
            cond_estimate=cond,
        )
    X, _ = dgetrs(lu, piv, B)

    residual = np.abs(A @ X - B).max(initial=0.0)
    bound = RESIDUAL_RTOL * (1.0 + norm_A * np.abs(X).max(initial=0.0))
    if not residual <= bound:  # also refuses a NaN residual
        cond = _condition_estimate(A)
        raise SingularSystemError(
            f"solution residual {residual:.2e} exceeds bound {bound:.2e} "
            f"(cond ~ {cond:.2e})",
            context=context,
            cond_estimate=cond,
        )
    return X


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


def symmetrize(M: np.ndarray, rtol: float = SYMMETRY_RTOL, name: str = "matrix") -> np.ndarray:
    """Return M/2 + M'/2 if M is symmetric within ``rtol``, else raise."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidGameError(f"{name} must be square, got shape {M.shape}")
    gap, too_large = asymmetry(M, rtol)
    if too_large:
        raise InvalidGameError(f"{name} is not symmetric (max asymmetry {gap:.2e})")
    return 0.5 * M + 0.5 * M.T


@dataclass(frozen=True)
class Definiteness:
    """Classification of a symmetric matrix by its smallest eigenvalue."""

    classification: str  # "PD", "PSD" or "indefinite"
    min_eigenvalue: float

    @property
    def is_psd(self) -> bool:
        return self.classification in ("PD", "PSD")


def classify_definiteness(M: np.ndarray, tol: float = 1e-9) -> Definiteness:
    """Classify a (repairably) symmetric matrix as PD / PSD / indefinite.

    PD requires the smallest eigenvalue to exceed ``tol``; PSD requires it
    to be at least ``-tol``.  Non-symmetric input beyond the repair
    tolerance is an error.
    """
    M = symmetrize(M)
    if M.shape[0] == 0:
        raise InvalidGameError("cannot classify an empty matrix")
    min_eig = float(np.linalg.eigvalsh(M).min())
    if min_eig > tol:
        cls = "PD"
    elif min_eig >= -tol:
        cls = "PSD"
    else:
        cls = "indefinite"
    return Definiteness(cls, min_eig)
