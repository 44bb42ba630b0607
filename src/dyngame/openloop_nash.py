"""Open-loop Nash equilibrium via costate recursions.

Strategies are committed control sequences (functions of the initial
state only).  The minimum-principle conditions couple each player's
costate p^i to the shared trajectory; writing p_t^i as an affine function
of x_t yields backward recursions for per-player matrices M^i, m^i and a
closed-form transition pair (Phi_t, phi_t) for the equilibrium path:

    x_{t+1}* = Phi_t x_t* + phi_t,
    Phi_t    = (I + sum_j B^j (R^jj)^{-1} B^j' M_{t+1}^j)^{-1} A_t.

M_t absorbs the state weight charged on x_t (zero at t = 0), mirroring
the Z-indexing of the feedback solvers, with terminal M_T equal to the
last stage's Q.  The path gains satisfy u_t^i = -P_t^i x_t* - alpha_t^i
*along the equilibrium path*, and the solution's laws store them as
G = -P, g = -alpha; off-path use of those laws is extrapolation, not an
equilibrium law.  The solution's path is those laws played from x0 by
the state loop of :func:`dyngame.game.rollout`.

The equilibrium is weakly time consistent: re-solving the truncated game
from a state on the equilibrium path reproduces the tail, but the gains
are not optimal from arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, _priced, _walk, initial_state,
                   require_valid)
from .numerics import Checks, Site

#: The transition operator D = I + sum_j B^j (R^jj)^-1 B^j' M^j, one per stage.
TRANSITION = Site("open-loop transition operator",
                  "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                  "so no unique open-loop Nash equilibrium exists")


@dataclass(frozen=True)
class OpenLoopNashSolution:
    """One equilibrium from one initial state.  The drift-batched sweep
    behind the open-loop leader checks (:func:`sweep` over S drift
    sequences) returns arrays, not solutions."""

    spec: GameSpec
    x0: np.ndarray
    trajectory: Trajectory
    laws: tuple[AffineLaw, ...]         # per player path laws, G (T, m_i, p), g (T, m_i)
    M: np.ndarray                       # (n, T+1, p, p) costate coefficients


def solve(spec: GameSpec, x0: np.ndarray) -> OpenLoopNashSolution:
    """Unique open-loop Nash equilibrium from the initial state x0: one
    :func:`sweep` with the game's own drifts as its one sample, its path
    laws played and priced as :func:`dyngame.game.rollout` does, bit for bit."""
    view = require_valid(spec)
    x0 = initial_state(spec, x0)
    Mc, _, _, _, GT, g = sweep(view, view.s[None])
    traj = _priced(view, *_walk(view.A, view.B, x0, GT, g, view.s, None), False)
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj,
                                laws=tuple(AffineLaw(GT[:, :, b].swapaxes(1, 2), g[0, :, b])
                                           for b in view.blocks), M=Mc)


def sweep(view: StageArrays, s: np.ndarray):
    """The game of a validated game's view under each of the S drift
    sequences s (S, T, p): one backward pass over the stages, which no
    initial state enters, so the maps from stage s on are those of the
    tail game from s; :func:`dyngame.game._walk` plays the path laws.

    Returns M (n, T+1, p, p), m (S, n, T+1, p), Phi (T, p, p), phi (S, T,
    p) and the path laws u_t = x_t GT_t + g_t, gains GT (T, p, M),
    C-contiguous as :func:`dyngame.game.rollout` lays out a law's gains,
    and offsets g (S, T, M).  The R^jj solves of :func:`own_inputs`, one
    stacked solve per player over the stages, are formed before the
    backward pass; each stage's transition operator is solved once for all
    S drifts, and every solve is tested once the backward pass is done.
    """
    T, p, M = view.B.shape
    n, S = view.Q.shape[1], len(s)

    Mc = np.zeros((n, T + 1, p, p))
    Mc[:, T] = view.Q[T - 1]
    m = np.zeros((S, n, T + 1, p))
    Phi = np.zeros((T, p, p))
    phi = np.zeros((S, T, p))
    GT = np.zeros((T, p, M))
    g = np.zeros((S, T, M))

    Qxt = np.einsum("tipq,tiq->tip", view.Q, view.xt)
    ut_own = view.own(view.ut, lead=1)
    I = np.eye(p)
    with Checks.sweep(T) as checks:
        Rinv_Bt = own_inputs(view, checks)

        # Backward pass: transition pair, costate coefficients and path
        # laws.  Affine quantities are rows, one per sample; control rows
        # are stacked over players, each row k acting through its own
        # player's costate.
        for t in range(T - 1, -1, -1):
            A, B, RB = view.A[t], view.B[t], Rinv_Bt[t]
            RBM = view.own(RB @ Mc[:, t + 1])
            ut = ut_own[t]
            c_next = m[:, :, t + 1] - Qxt[t]
            drift = s[:, t] - (_by_row(RB, c_next, view.owner) - ut) @ B.T
            rhs = np.empty((p, p + S))
            rhs[:, :p], rhs[:, p:] = A, drift.T
            packed = checks.solve(I + B @ RBM, rhs, site=TRANSITION, stage=t)
            Phi[t] = packed[:, :p]
            phi[:, t] = packed[:, p:].T
            # The costate offset on the path, M_{t+1} phi_t + m_{t+1} - Q xt,
            # feeds both m_t and the path offsets.
            c = np.einsum("ipq,sq->sip", Mc[:, t + 1], phi[:, t]) + c_next
            GT[t] = (-RBM @ Phi[t]).T
            g[:, t] = ut - _by_row(RB, c, view.owner)
            # M is symmetric only for n = 1: the transition operator mixes
            # all players' costate matrices, so no symmetrization here.
            Mc[:, t] = A.T @ Mc[:, t + 1] @ Phi[t]
            if t:
                Mc[:, t] += view.Q[t - 1]
            m[:, :, t] = c @ A
    return Mc, m, Phi, phi, GT, g


def own_inputs(view: StageArrays, checks: Checks) -> np.ndarray:
    """(R^ii)^-1 B^i' of every player i at every stage, stacked over the
    control rows, (T, M, p): one stacked solve per player over the
    stages, tested by the sweep's ``checks``.  Of several stages whose
    R^ii fails the solve's tests the last is reported, the one a backward
    sweep reaches first."""
    T, p, M = view.B.shape
    out = np.zeros((T, p, M)).swapaxes(1, 2)  # each stage's block column-major, as LAPACK returns it
    for i, b in enumerate(view.blocks):
        out[:, b] = checks.solve(view.R[:, i, b, b], view.B[:, :, b].swapaxes(1, 2),
                                 context=lambda k, i=i: f"stage {k} control weight R^{i}{i}")
    return out


def _by_row(Rinv_Bt: np.ndarray, c: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Each control row k of R^-1 B' times its own player's costate offset,
    (S, M) from c (S, n, p)."""
    return np.einsum("kp,skp->sk", Rinv_Bt, c[:, owner])

