"""Dense linear algebra helpers: solves, definiteness tests, self-check identities.

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

from .errors import DefinitenessError, InvalidGameError, SingularSystemError

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
    relative tolerance ``rtol * (1 + max|M|)``."""
    gap = np.abs(M - M.T).max(initial=0.0)
    return gap, bool(gap > rtol * (1.0 + np.abs(M).max(initial=0.0)))


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


def pushthrough_residuals(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Max-norm residuals of the two push-through inverse identities.

        r1:  I - A B (I + B'AB)^{-1} B'   vs  (I + A B B')^{-1}
        r2:  I - B (I + B'AB)^{-1} B' A   vs  (I + B B' A)^{-1}

    Both vanish identically for positive definite A; the returned residuals
    serve as a numerical self-test and should be ~1e-10 or smaller for
    well-conditioned inputs.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    d = classify_definiteness(A)
    if d.classification != "PD":
        raise DefinitenessError(
            f"push-through identities require a positive definite matrix, "
            f"got {d.classification} (min eigenvalue {d.min_eigenvalue:.2e})"
        )
    if B.ndim != 2 or B.shape[0] != A.shape[0]:
        raise InvalidGameError(
            f"second factor must be {A.shape[0]}xr, got shape {B.shape}"
        )

    q = A.shape[0]
    I_q = np.eye(q)
    I_r = np.eye(B.shape[1])
    core = I_r + B.T @ A @ B

    lhs1 = I_q - A @ B @ solve_dense(core, B.T, context="push-through core")
    rhs1 = np.linalg.inv(I_q + A @ B @ B.T)
    r1 = float(np.abs(lhs1 - rhs1).max(initial=0.0))

    lhs2 = I_q - B @ solve_dense(core, B.T @ A, context="push-through core")
    rhs2 = np.linalg.inv(I_q + B @ B.T @ A)
    r2 = float(np.abs(lhs2 - rhs2).max(initial=0.0))
    return r1, r2
