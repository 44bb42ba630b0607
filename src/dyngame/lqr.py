"""Single-player finite-horizon affine-quadratic control.

Solves

    min_u  sum_t 1/2 ( x_{t+1}' Q_t x_{t+1} + u_t' R_t u_t )
    s.t.   x_{t+1} = A_t x_t + B_t u_t + s_t

as the one-player case of the feedback Nash recursion.  Zero cost targets
are required here; games with targets are solved by the n-player feedback
Nash solver on the one-player game.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import feedback_nash
from .errors import InvalidGameError
from .game import AffineLaw, GameSpec, initial_state, require_index, require_valid


@dataclass(frozen=True)
class ControlSolution:
    """The player's law sequence and value coefficients.

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
        x0 = initial_state(self.spec, x0)
        return float(0.5 * x0 @ self.Z[0] @ x0 + self.zeta[0] @ x0 + self.n_const[0])

    def cost_to_go(self, t: int, x: np.ndarray) -> float:
        """Optimal cost of stages t..T-1 from pre-decision state x.

        Subtracts the stage-(t-1) state weight folded into Z_t, turning the
        recursion coefficient back into a plain value function; 0 at t = T.
        """
        require_index("stage", t, self.spec.horizon)
        x = initial_state(self.spec, x, name="x")
        W = self.Z[t] - self.spec.prev_state_weight(t, 0)
        return float(0.5 * x @ W @ x + self.zeta[t] @ x + self.n_const[t])


def solve_control(spec: GameSpec) -> ControlSolution:
    """Optimal affine feedback for the one-player game with zero targets:
    feedback Nash's sweep (:func:`dyngame.feedback_nash.sweep`) on one player."""
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
    PA, Z, zeta, n_const = feedback_nash.sweep(view)
    return ControlSolution(spec=spec, laws=feedback_nash.laws_of(view, PA),
                           Z=Z[0], zeta=zeta[0], n_const=n_const[0])
