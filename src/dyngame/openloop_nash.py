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
last stage's Q.  The returned gains satisfy u_t^i = -P_t^i x_t* - alpha_t^i
*along the equilibrium path*; off-path use of (P, alpha) is extrapolation,
not an equilibrium law.

The equilibrium is weakly time consistent: re-solving the truncated game
from a state on the equilibrium path reproduces the tail, but the gains
are not optimal from arbitrary states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .game import AffineLaw, GameSpec, Trajectory, initial_state, require_valid, rollout
from .numerics import solve_dense


@dataclass(frozen=True)
class OpenLoopNashSolution:
    spec: GameSpec
    x0: np.ndarray
    trajectory: Trajectory
    M: np.ndarray                       # (n, T+1, p, p)
    m: np.ndarray                       # (n, T+1, p)
    Phi: np.ndarray                     # (T, p, p)
    phi: np.ndarray                     # (T, p)
    gains: tuple[tuple[np.ndarray, ...], ...]    # [t][i] (m_i, p)
    offsets: tuple[tuple[np.ndarray, ...], ...]  # [t][i] (m_i,)

    @property
    def laws(self) -> list[list[AffineLaw]]:
        """Path-gain representation in the unified u = G x + g convention."""
        return [
            [AffineLaw(-P, -a) for P, a in zip(stage_P, stage_a)]
            for stage_P, stage_a in zip(self.gains, self.offsets)
        ]

    def transition_residual(self) -> float:
        """Max gap between the stored states and the (Phi, phi) recursion."""
        x = self.trajectory.states
        worst = 0.0
        for t in range(self.spec.horizon):
            worst = max(worst, np.abs(x[t + 1] - (self.Phi[t] @ x[t] + self.phi[t])).max(initial=0.0))
        return float(worst)


def solve(spec: GameSpec, x0: np.ndarray) -> OpenLoopNashSolution:
    """Unique open-loop Nash equilibrium from the initial state x0."""
    require_valid(spec)
    x0 = initial_state(spec, x0)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players

    M = np.empty((n, T + 1, p, p))
    m = np.zeros((n, T + 1, p))
    for i in range(n):
        M[i, T] = spec.stages[T - 1].Q[i]
    Phi = np.empty((T, p, p))
    phi = np.empty((T, p))

    # Backward pass: transition pair and costate coefficients.  The
    # R^jj factorizations are kept for the forward pass.
    Rinv_Bt = [[None] * n for _ in range(T)]
    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        D = np.eye(p)
        drift = st.s.copy()
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight R^{j}{j}")
            Rinv_Bt[t][j] = RinvBt
            D = D + st.B[j] @ RinvBt @ M[j, t + 1]
            drift = drift - st.B[j] @ (
                RinvBt @ (m[j, t + 1] - st.Q[j] @ st.x_target[j]) - st.u_target[j][j]
            )
        try:
            packed = solve_dense(D, np.hstack([st.A, drift[:, None]]),
                                 context=f"stage {t} open-loop transition operator")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the open-loop transition operator I + sum_j B R^-1 B' M is singular, "
                f"so no unique open-loop Nash equilibrium exists ({exc})",
                context=f"stage {t}", cond_estimate=exc.cond_estimate,
            ) from exc
        Phi[t] = packed[:, :p]
        phi[t] = packed[:, p]
        for i in range(n):
            # M is symmetric only for n = 1: the transition operator mixes
            # all players' costate matrices, so no symmetrization here.
            M[i, t] = spec.prev_state_weight(t, i) + st.A.T @ M[i, t + 1] @ Phi[t]
            m[i, t] = st.A.T @ (M[i, t + 1] @ phi[t] + m[i, t + 1]
                                - st.Q[i] @ st.x_target[i])

    # Forward pass: path gains and explicit controls.
    gains: list[tuple[np.ndarray, ...]] = [None] * T
    offsets: list[tuple[np.ndarray, ...]] = [None] * T
    controls = [np.empty((T, mm)) for mm in spec.control_dims]
    x = x0.copy()
    for t in range(T):
        st = spec.stages[t]
        P_t, a_t = [], []
        for i in range(n):
            RinvBt = Rinv_Bt[t][i]
            P = RinvBt @ M[i, t + 1] @ Phi[t]
            a = RinvBt @ (M[i, t + 1] @ phi[t] + m[i, t + 1]
                          - st.Q[i] @ st.x_target[i]) - st.u_target[i][i]
            P_t.append(P)
            a_t.append(a)
            controls[i][t] = -P @ x - a
        gains[t] = tuple(P_t)
        offsets[t] = tuple(a_t)
        x = Phi[t] @ x + phi[t]

    traj = rollout(spec, controls, x0)
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj, M=M, m=m,
                                Phi=Phi, phi=phi, gains=tuple(gains), offsets=tuple(offsets))


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


def solve_alt(spec: GameSpec, x0: np.ndarray) -> OpenLoopNashSolution:
    """Same equilibrium via the shifted costate coefficients (H, h).

    Rewrites m^i as h^i + Q^i xt_i and expresses the controls directly
    through the *next* state, u_t^i = ut_ii - (R^ii)^{-1} B^i'(H_{t+1}^i
    x_{t+1}* + h_{t+1}^i).  Kept as an independent code path; must agree
    with :func:`solve` to ~1e-10.
    """
    require_valid(spec)
    x0 = np.asarray(x0, dtype=float)
    T, p, n = spec.horizon, spec.state_dim, spec.n_players

    H = np.empty((n, T + 1, p, p))
    h = np.zeros((n, T + 1, p))
    for i in range(n):
        Qterm = spec.stages[T - 1].Q[i]
        H[i, T] = Qterm
        h[i, T] = -Qterm @ spec.stages[T - 1].x_target[i]
    Lam = np.empty((T, p, p))
    eta = np.empty((T, p))

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        L = np.eye(p)
        e = st.s.copy()
        for j in range(n):
            RinvBt = solve_dense(st.R[j][j], st.B[j].T, context=f"stage {t} control weight")
            L = L + st.B[j] @ RinvBt @ H[j, t + 1]
            e = e + st.B[j] @ (st.u_target[j][j] - RinvBt @ h[j, t + 1])
        Lam[t] = L
        eta[t] = e
        core = solve_dense(L, np.hstack([st.A, e[:, None]]),
                           context=f"stage {t} rewritten transition operator")
        for i in range(n):
            H[i, t] = spec.prev_state_weight(t, i) + st.A.T @ H[i, t + 1] @ core[:, :p]
            prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
            h[i, t] = (-spec.prev_state_weight(t, i) @ prev_xt
                       + st.A.T @ (H[i, t + 1] @ core[:, p] + h[i, t + 1]))

    controls = [np.empty((T, mm)) for mm in spec.control_dims]
    gains: list[tuple[np.ndarray, ...]] = [None] * T
    offsets: list[tuple[np.ndarray, ...]] = [None] * T
    x = x0.copy()
    for t in range(T):
        st = spec.stages[t]
        packed = solve_dense(Lam[t], np.hstack([st.A, eta[t][:, None]]),
                             context=f"stage {t} state update")
        Phi_t, phi_t = packed[:, :p], packed[:, p]
        x_next = Phi_t @ x + phi_t
        P_t, a_t = [], []
        for i in range(n):
            RinvBt = solve_dense(st.R[i][i], st.B[i].T, context=f"stage {t} control weight")
            controls[i][t] = st.u_target[i][i] - RinvBt @ (H[i, t + 1] @ x_next + h[i, t + 1])
            # Path-gain form for parity with the primary solver.
            P_t.append(RinvBt @ H[i, t + 1] @ Phi_t)
            a_t.append(RinvBt @ (H[i, t + 1] @ phi_t + h[i, t + 1]) - st.u_target[i][i])
        gains[t] = tuple(P_t)
        offsets[t] = tuple(a_t)
        x = x_next

    traj = rollout(spec, controls, x0)
    # Convert (H, h) back to (M, m) so the returned object is uniform.
    M = H.copy()
    m = np.zeros((n, T + 1, p))
    for i in range(n):
        for t in range(T + 1):
            if t == T:
                xt = spec.stages[T - 1].x_target[i]
                m[i, t] = h[i, t] + spec.stages[T - 1].Q[i] @ xt
            else:
                prev_xt = spec.stages[t - 1].x_target[i] if t > 0 else np.zeros(p)
                m[i, t] = h[i, t] + spec.prev_state_weight(t, i) @ prev_xt
    Phi = np.empty((T, p, p))
    phi = np.empty((T, p))
    for t in range(T):
        st = spec.stages[t]
        Phi[t] = solve_dense(Lam[t], st.A, context=f"stage {t} state update")
        phi[t] = solve_dense(Lam[t], eta[t], context=f"stage {t} state update")
    return OpenLoopNashSolution(spec=spec, x0=x0, trajectory=traj, M=M, m=m,
                                Phi=Phi, phi=phi, gains=tuple(gains), offsets=tuple(offsets))


def control_deviation(a: OpenLoopNashSolution, b: OpenLoopNashSolution) -> float:
    """Max entrywise gap between two solutions' control sequences and paths."""
    worst = max(
        np.abs(ua - ub).max(initial=0.0)
        for ua, ub in zip(a.trajectory.controls, b.trajectory.controls)
    )
    return float(max(worst, np.abs(a.trajectory.states - b.trajectory.states).max(initial=0.0)))
