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
from .game import AffineLaw, GameSpec, require_valid
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


def stacked_stage_operator(B, Z_next, R, idx) -> np.ndarray:
    """Block operator of the coupled stage first-order conditions.

    Row block i, column block j (players restricted to ``idx``):
    R^ii on the diagonal plus B^i' Z^i B^j everywhere.
    """
    rows = []
    for i in idx:
        blocks = []
        for j in idx:
            blk = B[i].T @ Z_next[i] @ B[j]
            if i == j:
                blk = blk + R[i][i]
            blocks.append(blk)
        rows.append(np.hstack(blocks))
    return np.vstack(rows)


def gain_rhs(st, Z_next, idx, F) -> np.ndarray:
    """Gain right-hand sides B^i' Z^i F of the stage first-order conditions
    of players ``idx``, stacked, for the state map F the players face."""
    return np.vstack([st.B[i].T @ Z_next[i] @ F for i in idx])


def stage_rhs(st, Z_next, zeta_next, idx, F, d) -> np.ndarray:
    """Gain and offset right-hand sides of the stage first-order conditions
    of players ``idx``, packed as [rows B^i' Z^i F | column
    B^i'(Z^i d + zeta^i - Q^i xt^i) - R^ii ut^ii], for state map F and
    drift d."""
    offsets = np.concatenate([
        st.B[i].T @ (Z_next[i] @ d + zeta_next[i] - st.Q[i] @ st.x_target[i])
        - st.R[i][i] @ st.u_target[i][i]
        for i in idx
    ])
    return np.hstack([gain_rhs(st, Z_next, idx, F), offsets[:, None]])


def _split(stacked: np.ndarray, dims) -> list[np.ndarray]:
    return np.split(stacked, np.cumsum(dims[:-1]), axis=0)


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
    T, p, n = spec.horizon, spec.state_dim, spec.n_players
    dims = spec.control_dims

    Z = np.empty((n, T + 1, p, p))
    zeta = np.zeros((n, T + 1, p))
    n_const = np.zeros((n, T + 1))
    for i in range(n):
        Z[i, T] = spec.stages[T - 1].Q[i]

    all_players = list(range(n))
    G = [np.empty((T, m, p)) for m in dims]
    g = [np.empty((T, m)) for m in dims]

    for t in range(T - 1, -1, -1):
        st = spec.stages[t]
        Z_next = [Z[i, t + 1] for i in range(n)]
        C = stacked_stage_operator(st.B, Z_next, st.R, all_players)
        try:
            sol = solve_dense(C, stage_rhs(st, Z_next, zeta[:, t + 1], all_players,
                                           st.A, st.s),
                              context=f"stage {t} stacked Nash gain/offset system")
        except SingularSystemError as exc:
            raise SingularSystemError(
                "the stage first-order conditions admit no unique solution, so the "
                "game has no unique feedback Nash equilibrium in affine strategies "
                f"({exc})",
                context=f"stage {t}",
                cond_estimate=exc.cond_estimate,
            ) from exc
        blocks = _split(sol, dims)
        P = [blk[:, :p] for blk in blocks]
        alpha = [blk[:, p] for blk in blocks]
        for i in all_players:
            G[i][t], g[i][t] = -P[i], -alpha[i]

        _update_quadratics(spec, t, P, alpha, Z, zeta, n_const)

    return FeedbackNashSolution(spec=spec, laws=tuple(map(AffineLaw, G, g)),
                                Z=Z, zeta=zeta, n_const=n_const)


def _update_quadratics(spec, t, P, alpha, Z, zeta, n_const):
    """Closed-loop update of every player's Z, zeta, n at stage t.

    Shared by the Nash and Stackelberg solvers: once the stage gains of
    all players are known, the value coefficients update identically.
    """
    st = spec.stages[t]
    n = spec.n_players
    F = st.A - sum(st.B[j] @ P[j] for j in range(n))
    d = st.s - sum(st.B[j] @ alpha[j] for j in range(n))
    for i in range(n):
        Zn, zn = Z[i, t + 1], zeta[i, t + 1]
        xt, Qi = st.x_target[i], st.Q[i]
        Zt = (F.T @ Zn @ F
              + sum(P[j].T @ st.R[i][j] @ P[j] for j in range(n))
              + spec.prev_state_weight(t, i))
        Z[i, t] = 0.5 * (Zt + Zt.T)
        zeta[i, t] = (F.T @ (zn + Zn @ d - Qi @ xt)
                      + sum(P[j].T @ st.R[i][j] @ (alpha[j] + st.u_target[i][j])
                            for j in range(n)))
        n_const[i, t] = (
            n_const[i, t + 1]
            + 0.5 * d @ Zn @ d + zn @ d
            + 0.5 * sum(alpha[j] @ st.R[i][j] @ alpha[j] for j in range(n))
            - xt @ Qi @ d
            + sum(st.u_target[i][j] @ st.R[i][j] @ alpha[j] for j in range(n))
            + 0.5 * (xt @ Qi @ xt
                     + sum(st.u_target[i][j] @ st.R[i][j] @ st.u_target[i][j]
                           for j in range(n)))
        )
