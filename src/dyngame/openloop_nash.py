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

from .errors import SingularSystemError
from .game import (AffineLaw, GameSpec, StageArrays, Trajectory, drift_samples,
                   initial_state, require_valid, rollout)
from .numerics import solve_dense


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
    and linearly, so one matrix sweep (the R^jj solves, D, Phi, M, one LU
    of D per stage) serves all S games, whose drift columns share that
    LU's right-hand side with A.  Without ``drifts`` the same sweep runs
    on the game's own drifts as its one sample.
    """
    require_valid(spec)
    x0 = initial_state(spec, x0)
    view = StageArrays.of(spec)
    s = view.s[None] if drifts is None else drift_samples(spec, drifts)
    T, p, M = view.B.shape
    n, S = spec.n_players, len(s)

    Mc = np.empty((n, T + 1, p, p))
    Mc[:, T] = view.Q[T - 1]
    m = np.zeros((S, n, T + 1, p))
    Phi = np.empty((T, p, p))
    phi = np.empty((S, T, p))
    G = np.empty((T, M, p))
    g = np.empty((S, T, M))

    # Backward pass: transition pair, costate coefficients and path laws.
    # Affine quantities are rows, one per sample; control rows are stacked
    # over players, each row k acting through its own player's costate.
    for t in range(T - 1, -1, -1):
        A, B = view.A[t], view.B[t]
        Rinv_Bt = np.vstack([solve_dense(view.R[t, j, b, b], B[:, b].T,
                                         context=f"stage {t} control weight R^{j}{j}")
                             for j, b in enumerate(view.blocks)])
        RBM = view.own(Rinv_Bt @ Mc[:, t + 1])
        ut = view.own(view.ut[t])
        c_next = m[:, :, t + 1] - np.einsum("ipq,iq->ip", view.Q[t], view.xt[t])
        drift = s[:, t] - (np.einsum("kp,skp->sk", Rinv_Bt, c_next[:, view.owner]) - ut) @ B.T
        try:
            packed = solve_dense(np.eye(p) + B @ RBM, np.hstack([A, drift.T]),
                                 context=f"stage {t} open-loop transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                f"so no unique open-loop Nash equilibrium exists ({exc})",
                context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc
        Phi[t] = packed[:, :p]
        phi[:, t] = packed[:, p:].T
        # The costate offset on the path, M_{t+1} phi_t + m_{t+1} - Q xt,
        # feeds both m_t and the path offsets.
        c = np.einsum("ipq,sq->sip", Mc[:, t + 1], phi[:, t]) + c_next
        G[t] = -RBM @ Phi[t]
        g[:, t] = ut - np.einsum("kp,skp->sk", Rinv_Bt, c[:, view.owner])
        # M is symmetric only for n = 1: the transition operator mixes
        # all players' costate matrices, so no symmetrization here.
        Mc[:, t] = (view.Q[t - 1] if t else 0.0) + A.T @ Mc[:, t + 1] @ Phi[t]
        m[:, :, t] = c @ A

    # Forward pass: the explicit controls along each path.
    u = np.empty((S, T, M))
    x = np.repeat(x0[None], S, axis=0)
    for t in range(T):
        u[:, t] = x @ G[t].T + g[:, t]
        x = x @ Phi[t].T + phi[:, t]

    if drifts is None:
        m, phi, g, u = m[0], phi[0], g[0], u[0]
    traj = rollout(spec, [u[..., b] for b in view.blocks], x0, drifts=drifts)
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj,
                                laws=tuple(AffineLaw(G[:, b], g[..., b]) for b in view.blocks),
                                M=Mc, m=m, Phi=Phi, phi=phi)


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
    rows = np.arange(len(view.owner))
    grad = (np.einsum("tkl,tl->tk", view.R[:, view.owner, rows], u - view.ut[:, view.owner, rows])
            + np.einsum("tpk,tkp->tk", view.B, lam[:, view.owner]))
    res = {
        "adjoint": pvec[:-1] - np.einsum("tqp,tiq->tip", view.A, lam),
        "stationarity": grad,
        "state": x[1:] - (np.einsum("tpq,tq->tp", view.A, x[:-1]) + view.s
                          + np.einsum("tpk,tk->tp", view.B, u)),
    }
    return {key: float(np.abs(r).max(initial=0.0)) for key, r in res.items()}
