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

Index convention: Z_t combines the state weight charged on x_t by stage
t-1 with the cost-to-go Hessian of stage t, so Z_T is the last stage's Q
and, since no stage weight is ever charged on x_0, the equilibrium cost
from x_0 is exactly 1/2 x0'Z_0 x0 + zeta_0'x0 + n_0.  For one player with
zero cost targets this is single-player control (:mod:`dyngame.lqr`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import AffineLaw, GameSpec, StageArrays, require_index, require_valid
from .numerics import Checks, Site

#: The stacked gain and offset systems of all players, one per stage.
GAINS = Site("stacked Nash gain/offset system",
             "the stage first-order conditions admit no unique solution, so the game has "
             "no unique feedback Nash equilibrium in affine strategies")


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
        require_index("player", player, self.spec.n_players - 1)
        x0 = np.asarray(x0, dtype=float)
        return float(0.5 * x0 @ self.Z[player, 0] @ x0
                     + self.zeta[player, 0] @ x0 + self.n_const[player, 0])

    def cost_to_go(self, t: int, x: np.ndarray, player: int) -> float:
        """Equilibrium cost of stages t..T-1 from pre-decision state x;
        0 at t = T."""
        require_index("stage", t, self.spec.horizon)
        require_index("player", player, self.spec.n_players - 1)
        x = np.asarray(x, dtype=float)
        W = self.Z[player, t] - self.spec.prev_state_weight(t, player)
        return float(0.5 * x @ W @ x + self.zeta[player, t] @ x + self.n_const[player, t])


class StageTerms(NamedTuple):
    """The terms of the feedback recursion that read the stage data alone,
    stacked over stages; every lane of a sweep shares them."""

    As: np.ndarray      # [A_t | s_t], (T, p, p+1)
    Qxt: np.ndarray     # every player's Q^i xt^i, (T, n, p)
    R_ut: np.ndarray    # every player's R^i ut^i, (T, n, M)
    R_own: np.ndarray   # blockdiag(R^ii), (T, M, M)
    Ru_own: np.ndarray  # each control row's R^ii ut^ii, (T, M)
    const: np.ndarray   # 1/2 (xt^i' Q^i xt^i + ut^i' R^i ut^i), (T, n)

    @classmethod
    def of(cls, view: StageArrays) -> StageTerms:
        Qxt = np.einsum("tipq,tiq->tip", view.Q, view.xt)
        R_ut = np.einsum("tikl,til->tik", view.R, view.ut)
        R_own = view.own(view.R, lead=1)
        return cls(As=np.concatenate([view.A, view.s[..., None]], axis=2), Qxt=Qxt, R_ut=R_ut,
                   R_own=R_own, Ru_own=(R_own @ view.own(view.ut, lead=1)[..., None])[..., 0],
                   const=0.5 * (np.einsum("tip,tip->ti", view.xt, Qxt)
                                + np.einsum("tik,tik->ti", view.ut, R_ut)))


def stage_system(view: StageArrays, terms: StageTerms, t: int, Z: np.ndarray, zeta: np.ndarray):
    """The stage-t first-order conditions of all players in each of a
    lanes, C [P | alpha] = rhs, C (a, M, M) and rhs (a, M, p+1), given
    every lane's next-stage coefficients of every player, Z (a, n, p, p)
    and zeta (a, n, p).  With B'Z_own the rows B^i' Z^i of each player i,

        C   = blockdiag(R^ii) + B'Z_own B,
        rhs = [B'Z_own A | B'Z_own s + B^i'(zeta^i - Q^i xt^i) - R^ii ut^ii].
    """
    B = view.B[t]
    BZ = view.own(B.T @ Z, lead=1)
    rhs = BZ @ terms.As[t]
    rhs[..., -1] += view.own((zeta - terms.Qxt[t]) @ B, lead=1) - terms.Ru_own[t]
    return BZ @ B + terms.R_own[t], rhs


def solve(spec: GameSpec) -> FeedbackNashSolution:
    """Unique feedback Nash equilibrium of an affine-quadratic game.

    Per stage, backward: solve the stacked gain and offset systems, then
    update every player's Z, zeta and n through the closed loop.  A
    singular stage system means the stage first-order conditions do not
    pin down unique gains, i.e. the game has no unique feedback Nash
    equilibrium in affine strategies; this is reported with the stage
    index and a condition estimate.  This is the one lane of
    :func:`sweep` that starts at stage 0.
    """
    view = require_valid(spec)
    PA, Z, zeta, n_const = sweep(view, [0])
    return FeedbackNashSolution(spec=spec, laws=laws_of(view, PA[0]),
                                Z=Z[0], zeta=zeta[0], n_const=n_const[0])


def sweep(view: StageArrays, starts):
    """The backward sweeps of the tail games from the stages ``starts``,
    one lane each (see :meth:`StageArrays.lanes`), in one pass over the
    stages of a validated game's view.

    Every lane owns its stacked stage laws ``PA`` (L, T, M, p+1), u_t =
    -PA_t (x_t, 1), and value coefficients ``Z`` (L, n, T+1, p, p),
    ``zeta`` (L, n, T+1, p) and ``n`` (L, n, T+1), defined from its own
    start on (the laws are zero before it), and solves its own stage
    systems, all lanes' systems of a stage in one stacked call: lanes share
    the stage data, never a computed row.  Every stage solve is tested once
    the stages are done (see :class:`dyngame.numerics.Checks`).
    """
    starts, begin, end = view.lanes(starts)
    terms = StageTerms.of(view)
    Z, zeta, n_const = terminal_values(view, len(starts))
    T, p, M = view.B.shape
    PA = np.zeros((len(starts), T, M, p + 1))
    with Checks.sweep(end[starts[0]:]) as checks:
        for t in range(T - 1, starts[0] - 1, -1):
            a = end[t]
            C, rhs = stage_system(view, terms, t, Z[:a, :, t + 1], zeta[:a, :, t + 1])
            PA[:a, t] = checks.solve(C, rhs, site=GAINS, stage=t)
            update_values(view, terms, t, PA[:a, t], Z[:a], zeta[:a], n_const[:a], begin[t])
    return PA, Z, zeta, n_const


def terminal_values(view: StageArrays, lanes: int):
    """Value coefficients of every lane, Z (L, n, T+1, p, p), zeta (L, n,
    T+1, p) and n (L, n, T+1), with Z_T the last stage's Q."""
    T, n, p = view.Q.shape[:3]
    Z = np.zeros((lanes, n, T + 1, p, p))
    Z[:, :, T] = view.Q[T - 1]
    return Z, np.zeros((lanes, n, T + 1, p)), np.zeros((lanes, n, T + 1))


def laws_of(view: StageArrays, PA: np.ndarray) -> tuple[AffineLaw, ...]:
    """Each player's laws G = -P, g = -alpha from the stacked stage laws
    u_t = -[P_t | alpha_t] (x_t, 1), PA (T, M, p+1)."""
    return tuple(AffineLaw(-PA[:, b, :-1], -PA[:, b, -1]) for b in view.blocks)


def update_values(view: StageArrays, terms: StageTerms, t: int, PA: np.ndarray,
                  Z, zeta, n_const, weighted: int) -> None:
    """Closed-loop update of every player's Z, zeta, n at stage t under the
    stacked stage law u = -PA (x, 1), in each of a lanes: PA (a, M, p+1),
    Z (a, n, T+1, p, p) and so on.

    Shared by the Nash and Stackelberg solvers: once the stage gains of
    all players are known, the value coefficients update identically.
    Player i's stage cost-to-go is a quadratic in (x, 1) whose matrix,
    with x_{t+1} = [F | d](x, 1), is [F | d]' Z^i [F | d] + PA' R^i PA.
    Z_t absorbs the state weight of stage t-1 in the first ``weighted``
    lanes; the others start at t, where x_t is their initial state.
    """
    p = PA.shape[-1] - 1
    Fd = terms.As[t] - view.B[t] @ PA
    Zn, zn = Z[:, :, t + 1], zeta[:, :, t + 1]
    quad = (Fd.swapaxes(1, 2)[:, None] @ Zn @ Fd[:, None]
            + PA.swapaxes(1, 2)[:, None] @ view.R[t] @ PA[:, None])
    lin = (zn - terms.Qxt[t]) @ Fd + terms.R_ut[t] @ PA
    Zt = quad[..., :p, :p]
    if t:
        Zt[:weighted] += view.Q[t - 1]
    Z[:, :, t] = 0.5 * (Zt + Zt.swapaxes(-1, -2))
    zeta[:, :, t] = quad[..., :p, p] + lin[..., :p]
    n_const[:, :, t] = n_const[:, :, t + 1] + 0.5 * quad[..., p, p] + lin[..., p] + terms.const[t]
