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
from .game import AffineLaw, GameSpec, require_valid
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


def _require_lqr_shape(spec: GameSpec) -> None:
    if spec.n_players != 1:
        raise InvalidGameError(
            f"single-player control requires exactly one player, got {spec.n_players}"
        )
    for t, st in enumerate(spec.stages):
        if np.any(st.x_target[0]) or np.any(st.u_target[0][0]):
            raise InvalidGameError(
                f"stage {t} has nonzero cost targets; solve the n=1 game with "
                "the feedback Nash solver instead"
            )


def solve_control(spec: GameSpec) -> ControlSolution:
    """Optimal affine feedback for the one-player game with zero targets."""
    require_valid(spec)
    _require_lqr_shape(spec)
    T, p, m = spec.horizon, spec.state_dim, spec.control_dims[0]

    Z = np.empty((T + 1, p, p))
    zeta = np.zeros((T + 1, p))
    n_const = np.zeros(T + 1)
    Z[T] = spec.stages[T - 1].Q[0]
    G = np.empty((T, m, p))
    g = np.empty((T, m))

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        A, B, s, R = st.A, st.B[0], st.s, st.R[0][0]
        H = R + B.T @ Z[t + 1] @ B                      # stage Hessian, PD
        packed = solve_dense(H, np.hstack([B.T @ Z[t + 1] @ A,
                                           (B.T @ (Z[t + 1] @ s + zeta[t + 1]))[:, None]]),
                             context=f"stage {t} control gain/offset system")
        P, alpha = packed[:, :p], packed[:, p]
        G[t], g[t] = -P, -alpha

        F = A - B @ P
        d = s - B @ alpha
        Zt = F.T @ Z[t + 1] @ F + P.T @ R @ P + spec.prev_state_weight(t, 0)
        Z[t] = 0.5 * (Zt + Zt.T)
        zeta[t] = F.T @ (zeta[t + 1] + Z[t + 1] @ d) + P.T @ R @ alpha
        n_const[t] = (n_const[t + 1] + 0.5 * d @ Z[t + 1] @ d
                      + zeta[t + 1] @ d + 0.5 * alpha @ R @ alpha)

    return ControlSolution(spec=spec, laws=(AffineLaw(G, g),),
                           Z=Z, zeta=zeta, n_const=n_const)
