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
equilibrium law.

The equilibrium is weakly time consistent: re-solving the truncated game
from a state on the equilibrium path reproduces the tail, but the gains
are not optimal from arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, drift_samples,
                   initial_state, require_valid, sequence_path)
from .numerics import Checks, Site

#: The transition operator D = I + sum_j B^j (R^jj)^-1 B^j' M^j, one per stage.
TRANSITION = Site("open-loop transition operator",
                  "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                  "so no unique open-loop Nash equilibrium exists")


@dataclass(frozen=True)
class OpenLoopNashSolution:
    """One equilibrium; or, from a solve with ``drifts``, S of them, whose
    drift-dependent fields (the law offsets, the trajectory, ``m`` and
    ``phi``) carry a leading sample axis S while the rest is shared."""

    spec: GameSpec
    x0: np.ndarray
    trajectory: Trajectory
    laws: tuple[AffineLaw, ...]         # per player path laws, G (T, m_i, p), g (T, m_i)
    M: np.ndarray                       # (n, T+1, p, p)
    m: np.ndarray                       # (n, T+1, p)
    Phi: np.ndarray                     # (T, p, p)
    phi: np.ndarray                     # (T, p)


def solve(spec: GameSpec, x0: np.ndarray, drifts: np.ndarray | None = None) -> OpenLoopNashSolution:
    """Unique open-loop Nash equilibrium from the initial state x0.

    ``drifts`` (S, T, p) solves S games at once: the given game with its
    stage drifts replaced by each drift sequence in turn.  The drift
    enters only the affine parts -- m, phi, the offsets and the path --
    and linearly, so one matrix sweep (the R^jj solves, D, Phi, M, one
    solve with D per stage) serves all S games, whose drift columns share
    that solve's right-hand side with A.  Without ``drifts`` the same
    sweep runs on the game's own drifts as its one sample.  This is the one lane of
    :func:`sweep` that starts at stage 0; its path is priced as
    :func:`dyngame.game.rollout` prices it.
    """
    view = require_valid(spec)
    x0 = initial_state(spec, x0)
    s = view.s[None] if drifts is None else drift_samples(spec, drifts)
    u, Mc, m, Phi, phi, G, g = (a[0] for a in sweep(view, [0], x0[None], s))
    if drifts is None:
        m, phi, g = m[0], phi[0], g[0]
    traj = sequence_path(view, x0, u, s, drifts is not None)
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj,
                                laws=tuple(AffineLaw(G[:, b], g[..., b]) for b in view.blocks),
                                M=Mc, m=m, Phi=Phi, phi=phi)


def sweep(view: StageArrays, starts, x_starts: np.ndarray, s: np.ndarray):
    """The tail games from the stages ``starts``, one lane each (see
    :meth:`StageArrays.lanes`), solved in one pass over the stages of a
    validated game's view, each lane from its own initial state
    ``x_starts[l]`` and under each of the S drift sequences s (S, T, p).

    Every lane owns its sweep and its forward pass and returns, zero
    before its start: the controls u (L, S, T, M), M (L, n, T+1, p, p),
    m (L, S, n, T+1, p), Phi (L, T, p, p), phi (L, S, T, p) and the path
    laws G (L, T, M, p), g (L, S, T, M).  Lanes share the stage data and
    what is computed from it alone: the R^jj solves of :func:`own_inputs`,
    one stacked solve per player over the stages, formed once before the
    backward pass.  Every system that reads a lane's coefficients is still
    solved for that lane, each stage's transition operators of all lanes
    in one stacked call, and every solve is tested once the backward pass
    is done.
    """
    starts, begin, end = view.lanes(starts)
    T, p, M = view.B.shape
    n, L, S = view.Q.shape[1], len(starts), len(s)

    Mc = np.zeros((L, n, T + 1, p, p))
    Mc[:, :, T] = view.Q[T - 1]
    m = np.zeros((L, S, n, T + 1, p))
    Phi = np.zeros((L, T, p, p))
    phi = np.zeros((L, S, T, p))
    G = np.zeros((L, T, M, p))
    g = np.zeros((L, S, T, M))

    Qxt = np.einsum("tipq,tiq->tip", view.Q, view.xt)
    ut_own = view.own(view.ut, lead=1)
    with Checks.sweep(sum(end)) as checks:
        Rinv_Bt = own_inputs(view, starts[0], checks)

        # Backward pass: transition pair, costate coefficients and path
        # laws.  Affine quantities are rows, one per sample; control rows
        # are stacked over players, each row k acting through its own
        # player's costate.
        for t in range(T - 1, starts[0] - 1, -1):
            a = end[t]
            A, B, RB = view.A[t], view.B[t], Rinv_Bt[t]
            RBM = view.own(RB @ Mc[:a, :, t + 1], lead=1)
            ut = ut_own[t]
            c_next = m[:a, :, :, t + 1] - Qxt[t]
            drift = s[:, t] - (_by_row(RB, c_next, view.owner) - ut) @ B.T
            rhs = np.empty((a, p, p + S))
            rhs[..., :p], rhs[..., p:] = A, drift.swapaxes(1, 2)
            packed = checks.solve(np.eye(p) + B @ RBM, rhs, site=TRANSITION, stage=t)
            Phi[:a, t] = packed[..., :p]
            phi[:a, :, t] = packed[..., p:].swapaxes(1, 2)
            # The costate offset on the path, M_{t+1} phi_t + m_{t+1} - Q xt,
            # feeds both m_t and the path offsets.
            c = np.einsum("aipq,asq->asip", Mc[:a, :, t + 1], phi[:a, :, t]) + c_next
            G[:a, t] = -RBM @ Phi[:a, t]
            g[:a, :, t] = ut - _by_row(RB, c, view.owner)
            # M is symmetric only for n = 1: the transition operator mixes
            # all players' costate matrices, so no symmetrization here.  A
            # lane that starts at t charges no weight on its initial state.
            Mc[:a, :, t] = A.T @ Mc[:a, :, t + 1] @ Phi[:a, t, None]
            if t:
                Mc[:begin[t], :, t] += view.Q[t - 1]
            m[:a, :, :, t] = c @ A

    # Forward pass: the explicit controls along each path.
    u = np.zeros((L, S, T, M))
    x = np.zeros((L, S, p))
    for t in range(starts[0], T):
        a = end[t]
        if begin[t] < a:
            x[begin[t]:a] = x_starts[begin[t]:a, None]
        u[:a, :, t] = x[:a] @ G[:a, t].swapaxes(1, 2) + g[:a, :, t]
        x[:a] = x[:a] @ Phi[:a, t].swapaxes(1, 2) + phi[:a, :, t]
    return u, Mc, m, Phi, phi, G, g


def own_inputs(view: StageArrays, first: int, checks: Checks) -> np.ndarray:
    """(R^ii)^-1 B^i' of every player i at every stage from ``first`` on,
    stacked over the control rows, (T, M, p), zero before ``first``: one
    stacked solve per player over the stages, tested by the sweep's
    ``checks``.  Of several stages whose R^ii fails the solve's tests the
    last is reported, the one a backward sweep reaches first."""
    T, p, M = view.B.shape
    out = np.zeros((T, p, M)).swapaxes(1, 2)  # each stage's block column-major, as LAPACK returns it
    for i, b in enumerate(view.blocks):
        out[first:, b] = checks.solve(view.R[first:, i, b, b], view.B[first:, :, b].swapaxes(1, 2),
                                      context=lambda k, i=i: f"stage {first + k} control weight R^{i}{i}")
    return out


def _by_row(Rinv_Bt: np.ndarray, c: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Each control row k of R^-1 B' times its own player's costate offset,
    (a, S, M) from c (a, S, n, p).  Every lane's rows are laid out as in a
    lone lane, so that each lane meets the same products."""
    own = np.ascontiguousarray(c.swapaxes(1, 2)[:, owner]).swapaxes(1, 2)
    return np.einsum("kp,askp->ask", Rinv_Bt, own)


def costates(sol: OpenLoopNashSolution) -> np.ndarray:
    """Adjoint sequences p_0^i .. p_T^i reconstructed from (M, m).

    p_t^i = (M_t^i - W_t^i) x_t* + m_t^i with W_t^i the state weight
    absorbed into M_t^i; p_T^i = 0 exactly.  The backward adjoint
    recursion holds along the trajectory (see :func:`kkt_residuals`).
    """
    Q = StageArrays.of(sol.spec).Q
    W = np.concatenate([np.zeros_like(Q[:1]), Q]).swapaxes(0, 1)
    return np.einsum("itpq,tq->itp", sol.M - W, sol.trajectory.states) + sol.m


def kkt_residuals(sol: OpenLoopNashSolution) -> dict[str, float]:
    """Max-norm residuals of the minimum-principle conditions on the path.

    * ``adjoint``:       p_t^i = A_t'[p_{t+1}^i + Q_t^i (x_{t+1}* - xt_i)]
    * ``stationarity``:  R^ii(u_t^i - ut_ii) + B^i'[Q^i(x_{t+1}* - xt_i) + p_{t+1}^i] = 0
    * ``state``:         x_{t+1}* = A x_t* + sum B u + s
    """
    view = StageArrays.of(sol.spec)
    x = sol.trajectory.states
    u = np.concatenate(sol.trajectory.controls, axis=-1)
    pvec = costates(sol).swapaxes(0, 1)  # (T+1, n, p)
    # Every player's costate p_{t+1} + Q_t (x_{t+1} - xt), (T, n, p).
    lam = pvec[1:] + np.einsum("tipq,tiq->tip", view.Q, x[1:, None] - view.xt)
    rows = view.rows
    grad = (np.einsum("tkl,tl->tk", view.R[:, view.owner, rows], u - view.ut[:, view.owner, rows])
            + np.einsum("tpk,tkp->tk", view.B, lam[:, view.owner]))
    res = {
        "adjoint": pvec[:-1] - np.einsum("tqp,tiq->tip", view.A, lam),
        "stationarity": grad,
        "state": x[1:] - (np.einsum("tpq,tq->tp", view.A, x[:-1]) + view.s
                          + np.einsum("tpk,tk->tp", view.B, u)),
    }
    return {key: float(np.abs(r).max(initial=0.0)) for key, r in res.items()}
