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
from .game import (AffineLaw, GameSpec, Trajectory, drift_samples, initial_state,
                   require_valid, rollout)
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
    s = drift_samples(spec, drifts)
    T, p, n, S = spec.horizon, spec.state_dim, spec.n_players, len(s)

    M = np.empty((n, T + 1, p, p))
    m = np.zeros((S, n, T + 1, p))
    for i in range(n):
        M[i, T] = spec.stages[T - 1].Q[i]
    Phi = np.empty((T, p, p))
    phi = np.empty((S, T, p))
    G = [np.empty((T, mm, p)) for mm in spec.control_dims]
    g = [np.empty((S, T, mm)) for mm in spec.control_dims]

    # Backward pass: transition pair, costate coefficients and path laws.
    # Affine quantities are rows, one per sample.
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        D = np.eye(p)
        drift = s[:, t]
        Rinv_Bt = []
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight R^{j}{j}")
            Rinv_Bt.append(RinvBt)
            D = D + st.B[j] @ RinvBt @ M[j, t + 1]
            drift = drift - ((m[:, j, t + 1] - st.Q[j] @ st.x_target[j]) @ RinvBt.T
                             - st.u_target[j][j]) @ st.B[j].T
        try:
            packed = solve_dense(D, np.hstack([st.A, drift.T]),
                                 context=f"stage {t} open-loop transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                f"so no unique open-loop Nash equilibrium exists ({exc})",
                context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc
        Phi[t] = packed[:, :p]
        phi[:, t] = packed[:, p:].T
        for i in range(n):
            # The costate offset on the path, M_{t+1} phi_t + m_{t+1} - Q xt,
            # feeds both m_t and the path offset of player i.
            c = phi[:, t] @ M[i, t + 1].T + m[:, i, t + 1] - st.Q[i] @ st.x_target[i]
            G[i][t] = -Rinv_Bt[i] @ M[i, t + 1] @ Phi[t]
            g[i][:, t] = st.u_target[i][i] - c @ Rinv_Bt[i].T
            # M is symmetric only for n = 1: the transition operator mixes
            # all players' costate matrices, so no symmetrization here.
            M[i, t] = spec.prev_state_weight(t, i) + st.A.T @ M[i, t + 1] @ Phi[t]
            m[:, i, t] = c @ st.A

    # Forward pass: the explicit controls along each path.
    controls = [np.empty((S, T, mm)) for mm in spec.control_dims]
    x = np.repeat(x0[None], S, axis=0)
    for t in range(T):
        for i in range(n):
            controls[i][:, t] = x @ G[i][t].T + g[i][:, t]
        x = x @ Phi[t].T + phi[:, t]

    if drifts is None:
        m, phi, g, controls = m[0], phi[0], [gi[0] for gi in g], [u[0] for u in controls]
        traj = rollout(spec, controls, x0)
    else:
        traj = rollout(spec, controls, x0, drifts=s)
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj,
                                laws=tuple(map(AffineLaw, G, g)), M=M, m=m, Phi=Phi, phi=phi)


def costates(sol: OpenLoopNashSolution) -> np.ndarray:
    """Adjoint sequences p_0^i .. p_T^i reconstructed from (M, m).

    p_t^i = (M_t^i - W_t^i) x_t* + m_t^i with W_t^i the state weight
    absorbed into M_t^i; p_T^i = 0 exactly.  The backward adjoint
    recursion holds along the trajectory (see :func:`kkt_residuals`).
    """
    spec = sol.spec
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    out = np.empty((n, T + 1, p))
    x = sol.trajectory.states
    for i in range(n):
        for t in range(T + 1):
            out[i, t] = (sol.M[i, t] - spec.prev_state_weight(t, i)) @ x[t] + sol.m[i, t]
    return out


def kkt_residuals(sol: OpenLoopNashSolution) -> dict[str, float]:
    """Max-norm residuals of the minimum-principle conditions on the path.

    * ``adjoint``:       p_t^i = A_t'[p_{t+1}^i + Q_t^i (x_{t+1}* - xt_i)]
    * ``stationarity``:  R^ii(u_t^i - ut_ii) + B^i'[Q^i(x_{t+1}* - xt_i) + p_{t+1}^i] = 0
    * ``state``:         x_{t+1}* = A x_t* + sum B u + s
    """
    spec = sol.spec
    T, n = spec.horizon, spec.n_players
    x = sol.trajectory.states
    u = sol.trajectory.controls
    pvec = costates(sol)

    res_adj = res_stat = res_state = 0.0
    for t in range(T):
        st = spec.stages[t]
        x_next = st.A @ x[t] + st.s + sum(st.B[j] @ u[j][t] for j in range(n))
        res_state = max(res_state, np.abs(x_next - x[t + 1]).max(initial=0.0))
        for i in range(n):
            dx = x[t + 1] - st.x_target[i]
            adj = st.A.T @ (pvec[i, t + 1] + st.Q[i] @ dx)
            res_adj = max(res_adj, np.abs(pvec[i, t] - adj).max(initial=0.0))
            grad = (st.R[i][i] @ (u[i][t] - st.u_target[i][i])
                    + st.B[i].T @ (st.Q[i] @ dx + pvec[i, t + 1]))
            res_stat = max(res_stat, np.abs(grad).max(initial=0.0))
    return {"adjoint": float(res_adj), "stationarity": float(res_stat),
            "state": float(res_state)}
