"""Feedback Nash equilibrium for n-player affine-quadratic games.

Backward induction over stages.  At each stage the players' first-order
conditions are linear in the unknown gains and offsets, coupled across
players; stacking them gives one block linear system per stage

    [ d_ij R^ii + B^i' Z^i B^j ]_{ij}  [P^1; ...; P^n] = [ B^i' Z^i A ]_i

(and the analogous right-hand side for the offsets), solved with a single
factorization.  The per-player quadratic coefficients Z/zeta/n then update
through the closed loop.  The resulting laws are strongly time consistent:
the recursion never reads the state, so the tail of a solution solves any
truncated game.

Index convention: Z_t absorbs the state weight charged on x_t by stage
t-1 (see :mod:`dyngame.lqr`), so Z_T is the terminal-stage Q and the
equilibrium cost from x_0 is 1/2 x0'Z_0 x0 + zeta_0'x0 + n_0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .game import AffineLaw, GameSpec, StageArrays, require_valid
from .numerics import solve_dense


@dataclass(frozen=True)
class FeedbackNashSolution:
    """Each player's law sequence plus value coefficients.

    ``laws[i]`` holds player i's rules u_t^i = G_t^i x_t + g_t^i, the
    negated P_t^i and alpha_t^i of the recursion's u = -P x - alpha.
    """

    spec: GameSpec
    laws: tuple[AffineLaw, ...]  # per player, G (T, m_i, p), g (T, m_i)
    Z: np.ndarray        # (n, T+1, p, p)
    zeta: np.ndarray     # (n, T+1, p)
    n_const: np.ndarray  # (n, T+1)

    def value(self, x0: np.ndarray, player: int) -> float:
        """Equilibrium cost of one player from the initial state."""
        x0 = np.asarray(x0, dtype=float)
        return float(0.5 * x0 @ self.Z[player, 0] @ x0
                     + self.zeta[player, 0] @ x0 + self.n_const[player, 0])

    def cost_to_go(self, t: int, x: np.ndarray, player: int) -> float:
        """Equilibrium cost of stages t..T-1 from pre-decision state x."""
        x = np.asarray(x, dtype=float)
        W = self.Z[player, t] - self.spec.prev_state_weight(t, player)
        return float(0.5 * x @ W @ x + self.zeta[player, t] @ x + self.n_const[player, t])


def stage_system(view: StageArrays, t: int, Z: np.ndarray, zeta: np.ndarray):
    """The stage-t first-order conditions of all players, C [P | alpha] =
    rhs, given every player's next-stage coefficients Z (n, p, p) and zeta
    (n, p).  With B'Z_own the rows B^i' Z^i of each player i,

        C   = blockdiag(R^ii) + B'Z_own B,
        rhs = [B'Z_own A | B'Z_own s + B^i'(zeta^i - Q^i xt^i) - R^ii ut^ii].
    """
    B = view.B[t]
    BZ = view.own(B.T @ Z)
    R_own = view.own(view.R[t])
    rhs = BZ @ np.column_stack([view.A[t], view.s[t]])
    rhs[:, -1] += view.own((zeta - _Qxt(view, t)) @ B) - R_own @ view.own(view.ut[t])
    return BZ @ B + R_own, rhs


def _Qxt(view: StageArrays, t: int) -> np.ndarray:
    """Every player's Q^i xt^i at stage t, (n, p)."""
    return np.einsum("ipq,iq->ip", view.Q[t], view.xt[t])


def solve(spec: GameSpec) -> FeedbackNashSolution:
    """Unique feedback Nash equilibrium of an affine-quadratic game.

    Per stage, backward: solve the stacked gain and offset systems, then
    update every player's Z, zeta and n through the closed loop.  A
    singular stage system means the stage first-order conditions do not
    pin down unique gains, i.e. the game has no unique feedback Nash
    equilibrium in affine strategies; this is reported with the stage
    index and a condition estimate.
    """
    require_valid(spec)
    view = StageArrays.of(spec)
    Z, zeta, n_const = terminal_values(view)
    T, p, M = view.B.shape
    PA = np.empty((T, M, p + 1))  # [P | alpha] of every player's rows
    for t in range(T - 1, -1, -1):
        C, rhs = stage_system(view, t, Z[:, t + 1], zeta[:, t + 1])
        try:
            PA[t] = solve_dense(C, rhs, context=f"stage {t} stacked Nash gain/offset system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the stage first-order conditions admit no unique solution, so the "
                "game has no unique feedback Nash equilibrium in affine strategies "
                f"({exc})",
                context=f"stage {t}",
                cond_estimate=exc.cond_estimate,
            ) from exc
        update_values(view, t, PA[t], Z, zeta, n_const)
    return FeedbackNashSolution(spec=spec, laws=laws_of(view, PA),
                                Z=Z, zeta=zeta, n_const=n_const)


def terminal_values(view: StageArrays):
    """Value coefficients Z (n, T+1, p, p), zeta (n, T+1, p) and n (n, T+1),
    with Z_T the last stage's Q."""
    T, n, p = view.Q.shape[:3]
    Z = np.empty((n, T + 1, p, p))
    Z[:, T] = view.Q[T - 1]
    return Z, np.zeros((n, T + 1, p)), np.zeros((n, T + 1))


def laws_of(view: StageArrays, PA: np.ndarray) -> tuple[AffineLaw, ...]:
    """Each player's laws G = -P, g = -alpha from the stacked stage laws
    u_t = -[P_t | alpha_t] (x_t, 1), PA (T, M, p+1)."""
    return tuple(AffineLaw(-PA[:, b, :-1], -PA[:, b, -1]) for b in view.blocks)


def update_values(view: StageArrays, t: int, PA: np.ndarray, Z, zeta, n_const) -> None:
    """Closed-loop update of every player's Z, zeta, n at stage t under the
    stacked stage law u = -PA (x, 1).

    Shared by the Nash and Stackelberg solvers: once the stage gains of
    all players are known, the value coefficients update identically.
    Player i's stage cost-to-go is a quadratic in (x, 1) whose matrix,
    with x_{t+1} = [F | d](x, 1), is [F | d]' Z^i [F | d] + PA' R^i PA.
    """
    p = PA.shape[1] - 1
    Fd = np.column_stack([view.A[t], view.s[t]]) - view.B[t] @ PA
    Qxt = _Qxt(view, t)
    R_ut = np.einsum("ikl,il->ik", view.R[t], view.ut[t])
    Zn, zn = Z[:, t + 1], zeta[:, t + 1]
    quad = Fd.T @ Zn @ Fd + PA.T @ view.R[t] @ PA
    lin = (zn - Qxt) @ Fd + R_ut @ PA
    Zt = quad[:, :p, :p] + (view.Q[t - 1] if t else 0.0)
    Z[:, t] = 0.5 * (Zt + Zt.swapaxes(1, 2))
    zeta[:, t] = quad[:, :p, p] + lin[:, :p]
    n_const[:, t] = (n_const[:, t + 1] + 0.5 * quad[:, p, p] + lin[:, p]
                     + 0.5 * (np.einsum("ip,ip->i", view.xt[t], Qxt)
                              + np.einsum("ik,ik->i", view.ut[t], R_ut)))
