"""Feedback Nash equilibrium for n-player affine-quadratic games.

Backward induction over stages on the augmented state (x, 1): player i's
value is 1/2 (x, 1)' Z~^i (x, 1) with Z~ = [[Z, zeta~], [zeta~', 2 n~]],
the dynamics A~ = [[A, s], [0, 1]] and B~ = [[B, 0], [0, 0]], the stage
charges Q~ = [[Q, -Q xt], [-xt'Q, xt'Q xt]] on (x, 1) and R~ = [[R, -R
ut], [-ut'R, ut'R ut]] on (u, 1).  Per stage, the players' first-order
conditions stack into one block system for the law u = -PA (x, 1),

    [ d_ij R^ii + B^i' Z^i B^j ]_{ij} PA = [ B^i' Z~^i[:p] A~ - [0 | R^ii ut^ii] ]_i,

solved with one factorization.  With K~ = [PA; -e'], (u, 1) = -K~ (x, 1)
and the closed loop F~ = A~ - B~ K~, every value then updates as

    Z~_t = F~' Z~_{t+1} F~ + K~' R~ K~ + Q~_{t-1}.

The recursion never reads the state, so the laws are strongly time
consistent: a tail game from stage s meets the whole game's stage systems
from s on, so its laws are the solution's from s on, bit for bit.

Z~_t holds stage t-1's charge Q~_{t-1} on x_t, none on x_0.  A solution
reports Z_t = Z~_t[:p, :p], which holds Q_{t-1}, and zeta_t and n_t from
the last column of Z~_t less stage t-1's linear and constant charges, so
the equilibrium cost from x_0 is exactly 1/2 x0'Z_0 x0 + zeta_0'x0 + n_0.
For one player with zero cost targets this is single-player control
(:mod:`dyngame.lqr`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import AffineLaw, GameSpec, StageArrays, initial_state, require_index, require_valid
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
        x0 = initial_state(self.spec, x0)
        return float(0.5 * x0 @ self.Z[player, 0] @ x0
                     + self.zeta[player, 0] @ x0 + self.n_const[player, 0])

    def cost_to_go(self, t: int, x: np.ndarray, player: int) -> float:
        """Equilibrium cost of stages t..T-1 from pre-decision state x;
        0 at t = T."""
        require_index("stage", t, self.spec.horizon)
        require_index("player", player, self.spec.n_players - 1)
        x = initial_state(self.spec, x, name="x")
        W = self.Z[player, t] - self.spec.prev_state_weight(t, player)
        return float(0.5 * x @ W @ x + self.zeta[player, t] @ x + self.n_const[player, t])


def charge(W: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The weight 1/2 (v - y)'W(v - y) as a form 1/2 (v, 1)' W~ (v, 1):
    W~ = J'WJ with J = [I | -y], for W (..., k, k) and y (..., k)."""
    J = np.concatenate([np.broadcast_to(np.eye(target.shape[-1]), W.shape), -target[..., None]],
                       axis=-1)
    return J.swapaxes(-1, -2) @ W @ J


class StageTerms(NamedTuple):
    """The terms of the feedback recursion that read the stage data alone,
    stacked over stages, on (x, 1) and (u, 1)."""

    A: np.ndarray       # A~ = [[A, s], [0, 1]], (T, p+1, p+1)
    B: np.ndarray       # B~ = [[B, 0], [0, 0]], (T, p+1, M+1): B~ K~ = [B PA; 0]
    Q: np.ndarray       # every player's Q~^i, (T, n, p+1, p+1)
    R: np.ndarray       # every player's R~^i on all controls, (T, n, M+1, M+1)
    R_own: np.ndarray   # blockdiag(R^ii), (T, M, M)
    Ru_own: np.ndarray  # each control row's R^ii ut^ii, (T, M)

    @classmethod
    def of(cls, view: StageArrays) -> StageTerms:
        T, p, M = view.B.shape
        A, B = np.zeros((T, p + 1, p + 1)), np.zeros((T, p + 1, M + 1))
        A[:, :p] = np.concatenate([view.A, view.s[..., None]], axis=2)
        A[:, p, p] = 1
        B[:, :p, :M] = view.B
        R_own = view.own(view.R, lead=1)
        return cls(A=A, B=B, Q=charge(view.Q, view.xt), R=charge(view.R, view.ut), R_own=R_own,
                   Ru_own=(R_own @ view.own(view.ut, lead=1)[..., None])[..., 0])


def stage_system(view: StageArrays, terms: StageTerms, t: int, BZ: np.ndarray):
    """The stage-t system of all players, C PA = rhs, C (M, M) and rhs
    (M, p+1), from the rows B' Z~^i[:p] of every player i's next-stage
    value, BZ (n, M, p+1)."""
    BZ = view.own(BZ)
    rhs = BZ @ terms.A[t]
    rhs[:, -1] -= terms.Ru_own[t]
    return BZ[:, :-1] @ view.B[t] + terms.R_own[t], rhs


def solve(spec: GameSpec) -> FeedbackNashSolution:
    """Unique feedback Nash equilibrium of an affine-quadratic game.

    Per stage, backward: solve the stacked gain and offset systems, then
    update every player's value Z~ through the closed loop.  A singular
    stage system means the stage first-order conditions do not pin down
    unique gains, i.e. the game has no unique feedback Nash equilibrium in
    affine strategies; this is reported with the stage index and a
    condition estimate.
    """
    view = require_valid(spec)
    PA, Z, zeta, n_const = sweep(view)
    return FeedbackNashSolution(spec=spec, laws=laws_of(view, PA), Z=Z, zeta=zeta,
                                n_const=n_const)


def sweep(view: StageArrays):
    """The backward sweep of a validated game's view: the stage laws
    ``PA`` (T, M, p+1), u_t = -PA_t (x_t, 1), and values ``Z`` (n, T+1, p,
    p), ``zeta`` (n, T+1, p) and ``n`` (n, T+1), every stage solve tested
    after the loop (see :class:`dyngame.numerics.Checks`)."""
    terms = StageTerms.of(view)
    K, Z = sweep_arrays(terms)
    T, p = view.B.shape[:2]
    with Checks.sweep(T) as checks:
        for t in range(T - 1, -1, -1):
            C, rhs = stage_system(view, terms, t, view.B[t].T @ Z[:, t + 1, :p])
            K[t, :-1] = checks.solve(C, rhs, site=GAINS, stage=t)
            update_values(terms, t, K[t], Z)
    return (K[:, :-1], *values_of(terms, Z))


def sweep_arrays(terms: StageTerms):
    """The stage laws K~ = [PA; -e'] (T, M+1, p+1), PA zero, and augmented
    values Z~ (n, T+1, p+1, p+1), Z~_T = Q~_{T-1}."""
    (T, n, q), M = terms.Q.shape[:3], terms.R.shape[-1] - 1
    K = np.zeros((T, M + 1, q))
    K[..., M, -1] = -1
    Z = np.zeros((n, T + 1, q, q))
    Z[:, T] = terms.Q[T - 1]
    return K, Z


def values_of(terms: StageTerms, Z: np.ndarray):
    """Z (n, T+1, p, p), zeta (n, T+1, p) and n (n, T+1) from the augmented
    values Z~: the last column of Z~_t less stage t-1's linear and constant
    charges on x_t, for t >= 1."""
    last = Z[..., -1].copy()
    last[:, 1:] -= terms.Q[..., -1].swapaxes(0, 1)
    return Z[..., :-1, :-1], last[..., :-1], 0.5 * last[..., -1]


def laws_of(view: StageArrays, PA: np.ndarray) -> tuple[AffineLaw, ...]:
    """Each player's laws G = -P, g = -alpha from the stacked stage laws
    u_t = -[P_t | alpha_t] (x_t, 1), PA (T, M, p+1)."""
    return tuple(AffineLaw(-PA[:, b, :-1], -PA[:, b, -1]) for b in view.blocks)


def update_values(terms: StageTerms, t: int, K: np.ndarray, Z: np.ndarray) -> None:
    """Z~_t of every player, Z (n, T+1, p+1, p+1), under the stage laws K~
    (M+1, p+1), symmetrised, with Q~_{t-1} for t >= 1 (none on the
    initial state).  Shared by the Nash and Stackelberg solvers."""
    F = terms.A[t] - terms.B[t] @ K
    Zt = F.T @ Z[:, t + 1] @ F + K.T @ terms.R[t] @ K
    if t:
        Zt += terms.Q[t - 1]
    Z[:, t] = 0.5 * (Zt + Zt.swapaxes(-1, -2))
