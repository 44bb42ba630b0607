"""Single-player finite-horizon affine-quadratic control.

Solves

    min_u  sum_t 1/2 ( x_{t+1}' Q_t x_{t+1} + u_t' R_t u_t )
    s.t.   x_{t+1} = A_t x_t + B_t u_t + s_t

by the backward Riccati-style recursion.  The quadratic coefficient Z_t is
indexed so that Z_{t+1} combines the stage-t state weight with the
cost-to-go Hessian of stage t+1; consequently Z_T equals the last stage's
Q and the optimal value from x_0 is exactly 1/2 x0'Z_0 x0 + zeta_0'x0 + n_0
(no stage weight is ever charged on x_0).

Zero cost targets are required here; games with targets are handled by the
n-player feedback Nash solver, which reduces to this problem for n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGameError
from .game import AffineLaw, GameSpec, StageArrays, require_valid
from .numerics import solve_dense


@dataclass(frozen=True)
class ControlSolution:
    """Backward-recursion output: the player's law sequence and value
    coefficients.

    Laws are reported as u = G x + g; internally the recursion produces
    u = -P x - alpha, so G = -P and g = -alpha.
    """

    spec: GameSpec
    laws: tuple[AffineLaw]            # one, G (T, m, p), g (T, m)
    Z: np.ndarray                     # (T+1, p, p)
    zeta: np.ndarray                  # (T+1, p)
    n_const: np.ndarray               # (T+1,)

    def value(self, x0: np.ndarray) -> float:
        """Optimal cost from the initial state."""
        x0 = np.asarray(x0, dtype=float)
        return float(0.5 * x0 @ self.Z[0] @ x0 + self.zeta[0] @ x0 + self.n_const[0])

    def cost_to_go(self, t: int, x: np.ndarray) -> float:
        """Optimal cost of stages t..T-1 from pre-decision state x.

        Subtracts the stage-(t-1) state weight folded into Z_t, turning the
        recursion coefficient back into a plain value function.
        """
        x = np.asarray(x, dtype=float)
        W = self.Z[t] - self.spec.prev_state_weight(t, 0)
        return float(0.5 * x @ W @ x + self.zeta[t] @ x + self.n_const[t])


def solve_control(spec: GameSpec) -> ControlSolution:
    """Optimal affine feedback for the one-player game with zero targets."""
    view = require_valid(spec)
    if spec.n_players != 1:
        raise InvalidGameError(
            f"single-player control requires exactly one player, got {spec.n_players}"
        )
    targeted = np.flatnonzero(view.xt.any(axis=(1, 2)) | view.ut.any(axis=(1, 2)))
    if targeted.size:
        raise InvalidGameError(
            f"stage {targeted[0]} has nonzero cost targets; solve the n=1 game with "
            "the feedback Nash solver instead"
        )
    G, g, Z, zeta, n_const = sweep(view, [0])
    return ControlSolution(spec=spec, laws=(AffineLaw(G[0], g[0]),),
                           Z=Z[0], zeta=zeta[0], n_const=n_const[0])


def sweep(view: StageArrays, starts):
    """The backward recursions of the tail problems from the stages
    ``starts``, one lane each (see :meth:`StageArrays.lanes`), in one pass
    over the stages of a validated one-player view with zero targets.

    Every lane owns its law, G (L, T, m, p) and g (L, T, m), zero before
    its start, and its coefficients Z (L, T+1, p, p), zeta (L, T+1, p) and
    n (L, T+1), and solves its own stage systems, all lanes' systems of a
    stage in one stacked call.
    """
    starts, begin, end = view.lanes(starts)
    L = len(starts)
    T, p, m = view.B.shape

    Z = np.empty((L, T + 1, p, p))
    zeta = np.zeros((L, T + 1, p))
    n_const = np.zeros((L, T + 1))
    Z[:, T] = view.Q[T - 1, 0]
    G = np.zeros((L, T, m, p))
    g = np.zeros((L, T, m))

    for t in range(T - 1, starts[0] - 1, -1):
        a = end[t]
        A, B, s, R = view.A[t], view.B[t], view.s[t], view.R[t, 0]
        Zn, zn = Z[:a, t + 1], zeta[:a, t + 1]
        H = R + B.T @ Zn @ B                      # stage Hessian, PD
        rhs = np.concatenate([B.T @ Zn @ A, B.T @ (Zn @ s[:, None] + zn[..., None])], axis=2)
        packed = solve_dense(H, rhs, context=f"stage {t} control gain/offset system")
        P, alpha = packed[..., :p], packed[..., p]
        G[:a, t], g[:a, t] = -P, -alpha

        F = A - B @ P
        d = s - (B @ alpha[..., None])[..., 0]
        PT, dr, ar = P.swapaxes(1, 2), d[:, None], alpha[:, None]  # rows (a, 1, .)
        Zt = F.swapaxes(1, 2) @ Zn @ F + PT @ R @ P
        if t:  # absorbs the stage t-1 weight, except where a lane starts
            Zt[:begin[t]] += view.Q[t - 1, 0]
        Z[:a, t] = 0.5 * (Zt + Zt.swapaxes(1, 2))
        zeta[:a, t] = (F.swapaxes(1, 2) @ (zn + (Zn @ d[..., None])[..., 0])[..., None]
                       + PT @ R @ alpha[..., None])[..., 0]
        n_const[:a, t] = (n_const[:a, t + 1] + (0.5 * dr @ Zn @ d[..., None])[:, 0, 0]
                          + (zn[:, None] @ d[..., None])[:, 0, 0]
                          + (0.5 * ar @ R @ alpha[..., None])[:, 0, 0])
    return G, g, Z, zeta, n_const
